"""Diagnostics: accuracy, proxy A-distance, the randomized-map Monte Carlo
verifier, entropy/correctness grouping, and feature export."""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field

import numpy as np

from . import conditioning as C
from . import networks as N
from . import optim
from . import serialize
from . import tensor as T
from .datagen import LabeledSet
from .tensor import Tensor

_STREAM_ADIST_INIT = 21

# A deliberately small probe: enough capacity to detect macro-separation of
# the two domains, not enough to memorize residual per-point differences.
_ADIST_HIDDEN = 4
_ADIST_EPOCHS = 200
_ADIST_LR = 0.05
_ADIST_MOMENTUM = 0.9
ADIST_MIN_ROWS = 40  # per domain


@dataclass
class EpochMetrics:
    """One row of metrics.csv; the fields are its columns, in order."""

    epoch: int
    step: int
    lr: float
    lambda_eff: float
    loss_cls: float
    loss_d: float = field(metadata={"column": "loss_D"})
    acc_src: float
    acc_tgt: float
    mean_w_correct: float | None
    mean_w_incorrect: float | None


@dataclass
class MetricsRecord:
    epochs: list[EpochMetrics] = field(default_factory=list)
    a_distance: float | None = None

    @property
    def final_target_accuracy(self) -> float:
        return self.epochs[-1].acc_tgt


def accuracy(g_probs: np.ndarray, labels: np.ndarray) -> float:
    """Argmax accuracy; ties break toward the lowest class index."""
    g_probs = np.asarray(g_probs)
    labels = np.asarray(labels)
    return float(np.mean(np.argmax(g_probs, axis=1) == labels))


def a_distance_from_error(eps: float) -> float:
    """dist_A = 2(1 - 2*eps) with eps clamped to <= 0.5 (worse than chance
    means no separability)."""
    return 2.0 * (1.0 - 2.0 * min(float(eps), 0.5))


def proxy_a_distance(f_src: np.ndarray, f_tgt: np.ndarray, seed: int) -> float:
    """Train a fresh 2-layer domain classifier on a 50/50 split of each domain
    and plug its held-out error into dist_A = 2(1 - 2*eps).

    The output layer starts at zero, which makes training equivariant to
    swapping the two domains (the learned logits just flip sign), so the
    measure is symmetric in its arguments up to float summation order.
    """
    f_src = np.asarray(f_src, dtype=np.float64)
    f_tgt = np.asarray(f_tgt, dtype=np.float64)
    if f_src.shape[0] < ADIST_MIN_ROWS or f_tgt.shape[0] < ADIST_MIN_ROWS:
        raise ValueError(f"need >= {ADIST_MIN_ROWS} rows per domain, got {f_src.shape[0]} and {f_tgt.shape[0]}")

    # Interleaved 50/50 split: deterministic, class-balanced for block-ordered
    # rows, and independent of which argument holds which domain.
    src_train, src_test = f_src[0::2], f_src[1::2]
    tgt_train, tgt_test = f_tgt[0::2], f_tgt[1::2]

    x_train = np.vstack([src_train, tgt_train])
    y_train = np.concatenate([np.ones(src_train.shape[0]), np.zeros(tgt_train.shape[0])])

    layers = N.init_layers(N.MlpSpec((x_train.shape[1], _ADIST_HIDDEN, 1)),
                           np.random.default_rng([seed, _STREAM_ADIST_INIT]))
    layers[-1][0].data[...] = 0.0  # drawn, then zeroed: the hidden layer keeps the stream's first draws
    optimizer = optim.SgdMomentum([([t for pair in layers for t in pair], 1.0)], _ADIST_MOMENTUM)

    x_const = Tensor(np.asfortranarray(x_train))  # column-major: the weight gradient's x.T is contiguous
    one_minus_y = 1.0 - y_train
    for _ in range(_ADIST_EPOCHS):
        T.backward(_probe_loss(T.mlp(x_const, layers), y_train, one_minus_y))
        optimizer.step(_ADIST_LR)

    def test_error(rows: np.ndarray, label: float) -> np.ndarray:
        p = T.clipped_sigmoid(T.mlp(Tensor(rows), layers).data)[0]
        return (p > 0.5).astype(np.float64) != label

    errors = np.concatenate([test_error(src_test, 1.0), test_error(tgt_test, 0.0)])
    return a_distance_from_error(errors.mean())


def _probe_loss(z: Tensor, y: np.ndarray, one_minus_y: np.ndarray) -> Tensor:
    """Mean binary cross-entropy of p = clipped_sigmoid(z), z the (n, 1) logits,
    against labels y, with the clamped log, as one node; forward and backward
    are the arithmetic of
    ``scale(tsum(add(mul(y, log(p)), mul(1 - y, log(1 - p)))), -1/n)``."""
    n = z.shape[0]
    p, dsig = T.clipped_sigmoid(z.data)
    log_p, dlog_p = T.clamped_log(p)
    log_q, dlog_q = T.clamped_log(p * -1.0 + np.ones(n))
    c = float(-1.0 / n)
    value = (y * log_p + one_minus_y * log_q).sum() * c

    def _bw(out):
        if z.requires_grad:
            grad = np.broadcast_to(out.grad * c, (n,))
            T._accumulate(z, dsig(dlog_p(grad * y) + dlog_q(grad * one_minus_y) * -1.0))

    return T.node(value, (z,), _bw)


@dataclass(frozen=True)
class Theorem1Result:
    exact: float
    mc_mean: float
    mc_var: float
    standard_error: float
    d: int
    n_resamples: int
    sampler: str

    @property
    def err_in_se(self) -> float:
        return abs(self.mc_mean - self.exact) / self.standard_error

    def unbiased_within(self, k: float = 3.0) -> bool:
        return abs(self.mc_mean - self.exact) < k * self.standard_error


MIN_RESAMPLES = 1000
_RESAMPLE_CHUNK = 512
_STREAM_RESAMPLE = 40
# Float64s a worker draws at once, at most: 2 MiB, sized to stay in cache.
_PIECE_ELEMS = 1 << 18


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def theorem1_verify(f: np.ndarray, g: np.ndarray, f2: np.ndarray, g2: np.ndarray,
                    d: int, n_resamples: int, sampler: str, seed: int) -> Theorem1Result:
    """Monte Carlo check that the randomized map's inner product is an unbiased
    estimate of <f,f2><g,g2>.

    Resamples are drawn in fixed-size chunks, each chunk from its own rng
    stream derived from (seed, chunk index). The chunks run in parallel on a
    thread pool with one worker per usable CPU (at most one per chunk); the
    numpy draws, matrix-vector products and elementwise ops release the GIL.
    Each worker draws its chunk in pieces of at most _PIECE_ELEMS float64s
    (at least one resample), so the draws in flight stay about workers x 2 MiB
    for any widths. A stream does not depend on how its draws are split, and
    each resample's estimate is its own row, so the result is a pure function
    of the seed, bit for bit, for any CPU count.
    """
    if n_resamples < MIN_RESAMPLES:
        raise ValueError(f"n_resamples must be >= {MIN_RESAMPLES}, got {n_resamples}")
    if sampler not in C.SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}, expected one of {C.SAMPLERS}")
    if d < 1:
        raise ValueError(f"randomized dimension must be >= 1, got {d}")
    f, g, f2, g2 = (np.asarray(v, dtype=np.float64).reshape(-1) for v in (f, g, f2, g2))
    df, dg = f.size, g.size
    if df < 1 or dg < 1:
        raise ValueError(f"f and g must be non-empty, got widths {df} and {dg}")
    if f2.size != df or g2.size != dg:
        raise ValueError(f"f2 and g2 must have the widths of f and g ({df}, {dg}), got ({f2.size}, {g2.size})")
    exact = float(np.dot(f, f2) * np.dot(g, g2))

    estimates = np.empty(n_resamples)
    n_chunks = -(-n_resamples // _RESAMPLE_CHUNK)
    workers = min(_usable_cpus(), n_chunks)
    piece = max(1, _PIECE_ELEMS // (d * (df + dg)))

    def estimate(rng: np.random.Generator, k: int) -> np.ndarray:
        block = C.draw(rng, sampler, (k, d, df + dg))
        rf, rg = block[:, :, :df], block[:, :, df:]
        a, a2 = rf @ f, rf @ f2
        b, b2 = rg @ g, rg @ g2
        return (a * a2 * b * b2).sum(axis=1) / d

    def run_chunk(chunk_index: int) -> None:
        rng = np.random.default_rng([seed, _STREAM_RESAMPLE, chunk_index])
        start = chunk_index * _RESAMPLE_CHUNK
        stop = min(start + _RESAMPLE_CHUNK, n_resamples)
        for lo in range(start, stop, piece):
            hi = min(lo + piece, stop)
            estimates[lo:hi] = estimate(rng, hi - lo)

    # Imported here: at module level it adds ~9 ms to `import condada`.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        # Reading every result re-raises a worker's exception here; map cancels
        # the chunks not yet started when it does.
        for _ in pool.map(run_chunk, range(n_chunks)):
            pass

    mc_var = float(estimates.var(ddof=1))
    return Theorem1Result(
        exact=exact,
        mc_mean=float(estimates.mean()),
        mc_var=mc_var,
        standard_error=float(np.sqrt(mc_var / n_resamples)),
        d=d,
        n_resamples=n_resamples,
        sampler=sampler,
    )


def entropy_exp_neg(g_probs: np.ndarray) -> np.ndarray:
    """Per-row e^{-H(g)}: the confidence weight before the +1 shift."""
    g = np.asarray(g_probs)
    logs = np.where(g > 0.0, np.log(np.maximum(g, 1e-300)), 0.0)
    h = -(g * logs).sum(axis=1)
    return np.exp(-h)


def entropy_correctness_report(g_probs_tgt: np.ndarray, labels_tgt: np.ndarray) -> tuple[float | None, float | None]:
    """Mean e^{-H} over correctly vs. incorrectly predicted examples.

    An empty group is reported as None (absent), never as zero.
    """
    conf = entropy_exp_neg(g_probs_tgt)
    correct = np.argmax(np.asarray(g_probs_tgt), axis=1) == np.asarray(labels_tgt)
    mean_correct = float(conf[correct].mean()) if correct.any() else None
    mean_incorrect = float(conf[~correct].mean()) if (~correct).any() else None
    return mean_correct, mean_incorrect


def export_features(bundle: N.ModelBundle, sets: list[LabeledSet], path, fork_last: bool = False) -> None:
    """Write one CSV row per example: feature coordinates (floats by repr),
    label, domain, formatted by ``serialize.write_csv_rows``. With ``fork_last``
    (``export-features``; in ``run_experiment`` the probe holds the second CPU),
    os.fork and two usable CPUs, a child forked through ``forked`` formats the
    last set in memory while the parent writes the rest, then os.pwrites it at
    the offset the parent publishes. The bytes are the same either way."""
    def write_rows(fh, labeled: LabeledSet) -> None:
        feats = N.forward_F(bundle, Tensor(labeled.x)).data
        serialize.write_csv_rows(fh, feats, labeled.y, f",{labeled.domain}")

    def format_last(link: Link) -> None:
        rows = io.BytesIO()
        write_rows(rows, sets[-1])
        link.recv()  # the parent has flushed and published its end offset
        data, at = rows.getbuffer(), int(link.shared[0])
        while data:
            written = os.pwrite(fh.fileno(), data, at)
            data, at = data[written:], at + written

    split = fork_last and len(sets) > 1 and hasattr(os, "fork") and _usable_cpus() >= 2
    with open(path, "wb") as fh, forked("feature export", format_last) if split else contextlib.nullcontext() as link:
        fh.write((",".join(f"f{i}" for i in range(bundle.d_f)) + ",label,domain\n").encode("ascii"))
        for labeled in sets[:-1] if split else sets:
            write_rows(fh, labeled)
        if split:
            fh.flush()
            link.shared[0] = fh.tell()
            link.send()
            link.join()


class Link:
    """One end of a forked job: ``shared``, float64s in an anonymous mapping
    that both ends see, and one pipe each way. ``send()`` writes one byte to
    the other end and ``recv()`` waits for one; in the parent, either call
    that finds the child gone reaps it and raises OSError naming the job."""

    def __init__(self, name: str, shared: np.ndarray, read_fd: int | None = None,
                 write_fd: int | None = None, pid: int | None = None):
        self.name, self.shared = name, shared
        self._read, self._write, self._pid = read_fd, write_fd, pid

    def send(self) -> None:
        try:
            os.write(self._write, b"\0")
        except BrokenPipeError:
            self.join()
            raise

    def recv(self) -> None:
        if not os.read(self._read, 1):
            self.join()
            raise OSError(f"{self.name}: the other end closed")

    def join(self) -> None:
        """Reap the child; raise OSError naming the job if it failed."""
        if self._pid is None:
            return
        status = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
        self._pid = None
        if status != 0:
            raise OSError(f"{self.name} failed with exit status {status}")


@contextlib.contextmanager
def forked(name: str, child, n_floats: int = 1):
    """Run ``child(link)`` in a forked child while the block runs, and yield
    the parent's ``Link``; both links share ``n_floats`` float64s.

    The parent reads the child's results after ``link.join()``. Leaving the
    block kills and reaps the child if it is not yet reaped, then closes the
    parent's ends of the pipes. The child ignores SIGINT (the parent's
    interrupt ends it) and ends in os._exit: no atexit handler, no flush of
    inherited buffers (the caller flushes its own first); an exception prints
    its traceback and exits 1. ``child`` must take no lock another thread may
    have held at the fork; numpy arithmetic takes none. Without os.fork,
    ``child`` runs inline before the block, so it must not call ``send`` or
    ``recv`` then.
    """
    if not hasattr(os, "fork"):
        link = Link(name, np.zeros(n_floats))
        child(link)
        yield link
        return
    import mmap  # at module level it adds ~0.5 ms to `import condada`
    import signal  # at module level it adds ~0.7 ms to `import condada`

    # No descriptor: an anonymous mapping is freed with its last view.
    shared = np.frombuffer(mmap.mmap(-1, 8 * n_floats))
    to_child, to_parent = os.pipe(), os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        for fd in to_child + to_parent:
            os.close(fd)
        raise
    if pid == 0:
        code = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            os.close(to_child[1])
            os.close(to_parent[0])
            child(Link(name, shared, to_child[0], to_parent[1]))
            code = 0
        except BaseException:
            import traceback

            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(code)

    os.close(to_child[0])
    os.close(to_parent[1])
    link = Link(name, shared, to_parent[0], to_child[1], pid)
    try:
        yield link
    finally:
        if link._pid is not None:
            os.kill(link._pid, signal.SIGKILL)
            os.waitpid(link._pid, 0)
        os.close(to_parent[0])
        os.close(to_child[1])
