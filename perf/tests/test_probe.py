import child


def test_back_to_back_ops_share_a_probe(monkeypatch):
    probes = iter([0.010, 0.020, 0.030, 0.040])
    calls = []

    def fake_probe():
        calls.append(1)
        return next(probes)

    monkeypatch.setattr(child, "probe", fake_probe)
    monkeypatch.setattr(child, "NOMINAL_S", 0.010)
    clock = child.OpClock(recorder=None)
    with clock.op("first"):
        pass
    assert clock.speed == (0.010 + 0.020) / 0.020
    with clock.op("second"):
        pass
    # The first op's closing probe opens the second: three probes, not four.
    assert len(calls) == 3
    assert clock.speed == (0.020 + 0.030) / 0.020
    assert clock.probes == [0.010, 0.020, 0.030]
