from mosaicseg import kernels, selftest


def test_all_checks_pass_except_known_gaps():
    results = {name: fn() for name, fn in selftest.CHECKS}
    for name, (ok, detail) in results.items():
        if name in selftest.KNOWN_GAPS:
            assert not ok, f"{name} unexpectedly passes; update the known-gap list"
        else:
            assert ok, f"{name}: {detail}"


def test_run_selftest_reports_and_exits_nonzero():
    lines = []
    code = selftest.run_selftest(write=lines.append)
    assert code == 1  # the known published-ordering gaps
    fails = [l for l in lines if l.startswith("FAIL")]
    assert len(fails) == len(selftest.KNOWN_GAPS)
    assert all("[known gap]" in l for l in fails)
    assert lines[-1].endswith("checks passed")


def test_injected_stride_fault_trips_shape_law(monkeypatch):
    real = kernels.same_pad

    def off_by_one(size, kernel, stride, dilation):
        out, before, after = real(size, kernel, stride, dilation)
        if kernel > 1:
            return out + 1, before + stride, after  # one extra output row/col
        return out, before, after

    monkeypatch.setattr(kernels, "same_pad", off_by_one)
    ok, detail = dict(selftest.CHECKS)["SAME shape law"]()
    assert not ok
    assert "ceil" in detail

