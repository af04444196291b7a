"""The threaded, piecewise Theorem-1 verifier against the serial whole-chunk
loop it replaced: equal results for every worker count, input checks before
any thread starts, and worker exceptions reaching the caller."""

import concurrent.futures
import sys
import threading

import numpy as np
import pytest

import condada.analysis as A
import condada.conditioning as C

CHUNK = 512
STREAM = 40


def serial_reference(f, g, f2, g2, d, n_resamples, sampler, seed):
    """One chunk after another, each drawn whole from its (seed, 40, chunk) stream."""
    f, g, f2, g2 = (np.asarray(v, dtype=np.float64).reshape(-1) for v in (f, g, f2, g2))
    df, dg = f.size, g.size
    exact = float(np.dot(f, f2) * np.dot(g, g2))
    half_width = float(np.sqrt(3.0))
    estimates = np.empty(n_resamples)
    for chunk_index, start in enumerate(range(0, n_resamples, CHUNK)):
        k = min(CHUNK, n_resamples - start)
        rng = np.random.default_rng([seed, STREAM, chunk_index])
        if sampler == "gaussian":
            block = rng.standard_normal((k, d, df + dg))
        else:
            block = rng.uniform(-half_width, half_width, size=(k, d, df + dg))
        rf, rg = block[:, :, :df], block[:, :, df:]
        a, a2 = rf @ f, rf @ f2
        b, b2 = rg @ g, rg @ g2
        estimates[start : start + k] = (a * a2 * b * b2).sum(axis=1) / d
    mc_var = float(estimates.var(ddof=1))
    return A.Theorem1Result(
        exact=exact,
        mc_mean=float(estimates.mean()),
        mc_var=mc_var,
        standard_error=float(np.sqrt(mc_var / n_resamples)),
        d=d,
        n_resamples=n_resamples,
        sampler=sampler,
    )


def quadruple(df, dg, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(df), rng.standard_normal(dg), rng.standard_normal(df), rng.standard_normal(dg)


@pytest.mark.parametrize("n_resamples", [1000, 1300, 5000])
@pytest.mark.parametrize("df, dg", [(16, 8), (8, 4), (1, 1)])
@pytest.mark.parametrize("d", [1, 7, 64])
@pytest.mark.parametrize("sampler", C.SAMPLERS)
def test_matches_the_serial_loop(sampler, d, df, dg, n_resamples):
    f, g, f2, g2 = quadruple(df, dg, seed=d)
    got = A.theorem1_verify(f, g, f2, g2, d=d, n_resamples=n_resamples, sampler=sampler, seed=5)
    want = serial_reference(f, g, f2, g2, d, n_resamples, sampler, seed=5)
    assert (got.exact, got.mc_mean, got.mc_var, got.standard_error) == \
        (want.exact, want.mc_mean, want.mc_var, want.standard_error)
    assert got == want


def expected_pieces(n_resamples, workers, d, width):
    piece = max(1, A._PIECE_ELEMS // (d * width))
    sizes = []
    for start in range(0, n_resamples, CHUNK):
        k = min(CHUNK, n_resamples - start)
        sizes += [piece] * (k // piece) + ([k % piece] if k % piece else [])
    return sorted(sizes)


@pytest.mark.parametrize("sampler", C.SAMPLERS)
def test_more_workers_than_cores_lose_and_double_no_slice(monkeypatch, sampler):
    # The byte budget sets the piece for any worker count: 341 resamples at
    # d = 32, 42 at d = 256. The last chunk (392 resamples) ends in a short
    # piece at d = 256.
    f, g, f2, g2 = quadruple(16, 8)
    lock = threading.Lock()
    shapes = []

    def recording(draw):
        def recording_draw(rng, sampler_, shape):
            with lock:
                shapes.append(shape)
            return draw(rng, sampler_, shape)
        return recording_draw

    def verify(workers, *quad, d, n_resamples):
        monkeypatch.setattr(A, "_usable_cpus", lambda: workers)
        shapes.clear()
        results = []
        caller = threading.Thread(
            target=lambda: results.append(
                A.theorem1_verify(*quad, d=d, n_resamples=n_resamples, sampler=sampler, seed=3)),
            daemon=True)
        caller.start()
        caller.join(timeout=120)
        assert not caller.is_alive(), f"verifier with {workers} workers at d = {d} did not finish in 120 s"
        return results

    saved_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        monkeypatch.setattr(C, "draw", recording(C.draw))
        for d in (32, 256):
            want = serial_reference(f, g, f2, g2, d, 5000, sampler, seed=3)
            for workers in (1, 3, 8):
                assert verify(workers, f, g, f2, g2, d=d, n_resamples=5000) == [want]
                assert sorted(shape[0] for shape in shapes) == expected_pieces(5000, workers, d, 16 + 8)

        # One resample of d = 1024 over widths 256 + 31 is more than the
        # budget, so each piece is one resample. Zeros keep the case fast.
        monkeypatch.setattr(C, "draw", recording(lambda rng, sampler_, shape: np.zeros(shape)))
        for workers in (1, 3, 8):
            assert len(verify(workers, *quadruple(256, 31), d=1024, n_resamples=1000)) == 1
            assert sum(shape[0] for shape in shapes) == 1000
            assert all(shape[1:] == (1024, 287) for shape in shapes)
            assert all(np.prod(shape) <= A._PIECE_ELEMS or shape[0] == 1 for shape in shapes)
    finally:
        sys.setswitchinterval(saved_interval)


def test_an_exception_inside_a_chunk_reaches_the_caller(monkeypatch):
    lock = threading.Lock()
    calls = []
    real_draw = C.draw

    def failing_draw(rng, sampler, shape):
        with lock:
            calls.append(shape)
            if len(calls) == 4:
                raise RuntimeError("draw failed in a worker")
        return real_draw(rng, sampler, shape)

    monkeypatch.setattr(C, "draw", failing_draw)
    f, g, f2, g2 = quadruple(8, 4)
    with pytest.raises(RuntimeError, match="draw failed in a worker"):
        A.theorem1_verify(f, g, f2, g2, d=16, n_resamples=5000, sampler="gaussian", seed=0)


@pytest.mark.parametrize("kwargs, message", [
    (dict(d=0), "dimension"),
    (dict(f=np.zeros(0), f2=np.zeros(0)), "non-empty"),
    (dict(g=np.zeros(0), g2=np.zeros(0)), "non-empty"),
    (dict(f2=np.ones(7)), "widths"),
    (dict(g2=np.ones(5)), "widths"),
])
def test_bad_inputs_raise_before_any_thread_starts(monkeypatch, kwargs, message):
    def no_pool(*args, **kw):
        raise AssertionError("a thread pool was created")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    f, g, f2, g2 = quadruple(8, 4)
    args = dict(f=f, g=g, f2=f2, g2=g2, d=16, n_resamples=1000, sampler="gaussian", seed=0)
    args.update(kwargs)
    with pytest.raises(ValueError, match=message):
        A.theorem1_verify(**args)
