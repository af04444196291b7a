"""End-to-end orchestration: deterministic training runs, multi-variant
comparisons, and the randomized-map verification sweep.

Every run is a pure function of (config, seed): model init, projection
sampling, and batch shuffles all draw from streams derived from the run seed,
and every emitted file is byte-reproducible.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from . import analysis as A
from . import conditioning as C
from . import networks as N
from . import objectives as O
from . import optim as opt
from . import tensor as T
from .config import ExperimentConfig
from .datagen import LabeledSet, batch_iter
from .errors import ConfigError, NumericAbort
from .tensor import Tensor

METRICS_HEADER = ",".join(f.metadata.get("column", f.name) for f in fields(A.EpochMetrics))

# Method presets: variant -> (conditioning strategy, entropy weighting); source_only also zeroes lambda.
PRESETS = {
    "source_only": (C.FEATURE_ONLY, False),
    "dann": (C.FEATURE_ONLY, False),
    "dann_g": (C.PREDICTION_ONLY, False),
    "dann_fg": (C.CONCAT, False),
    "cdan": ("auto", False),
    "cdan_e": ("auto", True),
}
VARIANTS = tuple(PRESETS)

_STREAM_PROJ = 4
_STREAM_SRC_BATCHES = 5
_STREAM_TGT_BATCHES = 6
_STREAM_ADIST = 7


def derived_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def apply_variant(cfg: ExperimentConfig, variant: str) -> ExperimentConfig:
    """Named method presets over a base config. A ``@sampler`` suffix forces
    that sampler for the randomized map."""
    name, at, sampler = variant.partition("@")
    if name not in VARIANTS:
        raise ConfigError(f"unknown variant {name!r}, expected one of {VARIANTS}")
    if at and sampler not in C.SAMPLERS:
        raise ConfigError(f"unknown sampler {sampler!r} in variant {variant!r}")
    strategy, entropy = PRESETS[name]
    return replace(cfg, strategy=strategy, entropy=entropy, sampler=sampler or cfg.sampler,
                   lam=0.0 if name == "source_only" else cfg.lam).validate()


def _batch_cycle(labeled: LabeledSet, batch_size: int, seed: int):
    """Endless deterministic batch stream; each pass reshuffles with its epoch index."""
    for epoch in itertools.count():
        yield from batch_iter(labeled, batch_size, seed, epoch)


_PARENT, _WORKER = 0, 1


class _SharedStep:
    """The mapping that the trainer shares with its worker, and one side's use of it.

    Per step parity it holds two blocks, the parent's then the worker's: the
    D loss of that side's half, then its flat gradient (``SgdMomentum.grad``),
    each block spanning whole 4 KiB pages. A side writes its block of step s
    while the other may still read its block of step s - 1. After the blocks
    come the worker's target-set predictions at the latest epoch end.
    """

    def __init__(self, n: int, n_predictions: int):
        self.n = n
        self.span = -(-(1 + n) // 512) * 512
        self.n_floats = 4 * self.span + n_predictions

    def bind(self, shared: np.ndarray, side: int) -> None:
        self.side = side
        self.blocks = shared[:4 * self.span].reshape(2, 2, self.span)[:, :, :1 + self.n]
        self.predictions = shared[4 * self.span:]

    def finish(self, link: A.Link, step: int, grad: np.ndarray, loss_d: float) -> float:
        """Copy this side's half into its block, hand it over, take the other's,
        and leave the parent's half plus the worker's in grad (both sides add
        in that order); returns the other half's D loss."""
        blocks = self.blocks[step % 2]
        blocks[self.side, 0] = loss_d
        blocks[self.side, 1:] = grad
        link.send()
        link.recv()
        np.add(blocks[_PARENT, 1:], blocks[_WORKER, 1:], out=grad)
        return float(blocks[1 - self.side, 0])


def _evaluate(bundle: N.ModelBundle, labeled: LabeledSet) -> tuple[float, np.ndarray]:
    f = N.forward_F(bundle, Tensor(labeled.x))
    _, g = N.forward_G(bundle, f)
    return A.accuracy(g.data, labeled.y), g.data


def train(cfg: ExperimentConfig, seed: int, src: LabeledSet, tgt: LabeledSet
          ) -> tuple[N.ModelBundle, A.MetricsRecord, C.RandomProjection | None]:
    """The minimax loop over explicit datasets. Target labels are touched only
    by the per-epoch evaluation, never by the optimization path. The record's
    ``a_distance`` is left to ``run_experiment``.

    With os.fork and two or more usable CPUs, a forked worker builds and
    differentiates every step's target half, on its own replica of the model,
    and evaluates the target set; the two swap gradients through
    ``_SharedStep``. Otherwise both halves run here. The outputs are the same
    bytes either way."""
    cfg.validate()
    if not set(range(cfg.n_classes)) <= set(src.y.tolist()):
        raise ConfigError(f"source set does not cover all {cfg.n_classes} classes")
    if tgt.n == 0:
        raise ConfigError("target set is empty")

    strategy = cfg.resolve_strategy()
    bundle = N.init_model(*cfg.model_specs(src.dim), seed)
    proj = None
    if strategy.tag == C.RANDOMIZED_MULTILINEAR:
        proj = C.sample_projection(strategy.d, bundle.d_f, bundle.d_g, strategy.sampler,
                                   derived_seed(seed, _STREAM_PROJ))

    schedule = cfg.schedule()
    optimizer = opt.SgdMomentum(
        [(bundle.params_f(), cfg.lr_mult_f), (bundle.params_g(), cfg.lr_mult_g),
         (bundle.params_d(), cfg.lr_mult_d)],
        momentum=schedule.momentum,
    )
    src_batches = _batch_cycle(src, cfg.batch_size, derived_seed(seed, _STREAM_SRC_BATCHES))
    tgt_batches = _batch_cycle(tgt, cfg.batch_size, derived_seed(seed, _STREAM_TGT_BATCHES))

    def schedules(step: int) -> tuple[float, float]:
        p = step / cfg.total_steps
        return opt.lr_schedule(p, schedule), schedule.lam * opt.lambda_schedule(p, schedule.delta)

    steps_per_epoch = math.ceil(src.n / cfg.batch_size)

    def end_of_epoch(step: int) -> bool:
        return (step + 1) % steps_per_epoch == 0 or step == cfg.total_steps - 1

    shared = _SharedStep(optimizer.grad.size, tgt.n * bundle.d_g)

    def target_worker(link: A.Link) -> None:
        shared.bind(link.shared, _WORKER)
        for step in range(cfg.total_steps):
            lr, lambda_eff = schedules(step)
            half = O.domain_half(next(tgt_batches)[0], None, bundle, strategy, proj, lambda_eff, cfg.entropy)
            T.backward(half.objective)
            shared.finish(link, step, optimizer.grad, half.discriminator_loss)
            optimizer.step(lr)
            if end_of_epoch(step):
                shared.predictions[:] = _evaluate(bundle, tgt)[1].reshape(-1)
                link.send()

    worker = None
    if hasattr(os, "fork") and A._usable_cpus() >= 2:
        worker = A.forked("training worker", target_worker, shared.n_floats)
    record = A.MetricsRecord()
    with worker or contextlib.nullcontext() as link:
        if link is not None:
            shared.bind(link.shared, _PARENT)
        for step in range(cfg.total_steps):
            lr, lambda_eff = schedules(step)
            x_s, y_s = next(src_batches)
            x_t = next(tgt_batches)[0] if link is None else None
            losses = O.cdan_step_losses(x_s, y_s, x_t, bundle, strategy, proj,
                                        lambda_eff=lambda_eff, entropy_weighting=cfg.entropy)
            T.backward(losses.objective)
            loss_d = losses.discriminator_loss
            if link is not None:
                loss_d += shared.finish(link, step, optimizer.grad, loss_d)
            if not (math.isfinite(losses.classifier_loss) and math.isfinite(loss_d)):
                raise NumericAbort(step, "loss", f"loss_cls={losses.classifier_loss}, loss_D={loss_d}")
            finite = np.isfinite(optimizer.grad)
            if not finite.all():
                raise NumericAbort(step, "gradient", f"{finite.size - finite.sum()} of {finite.size} entries")
            optimizer.step(lr)

            if end_of_epoch(step):
                acc_src, _ = _evaluate(bundle, src)
                if link is None:
                    g_tgt = _evaluate(bundle, tgt)[1]
                else:
                    link.recv()
                    g_tgt = shared.predictions.reshape(tgt.n, bundle.d_g)
                acc_tgt = A.accuracy(g_tgt, tgt.y)
                mean_correct, mean_incorrect = A.entropy_correctness_report(g_tgt, tgt.y)
                record.epochs.append(A.EpochMetrics(
                    epoch=step // steps_per_epoch, step=step, lr=lr, lambda_eff=lambda_eff,
                    loss_cls=losses.classifier_loss, loss_d=loss_d,
                    acc_src=acc_src, acc_tgt=acc_tgt,
                    mean_w_correct=mean_correct, mean_w_incorrect=mean_incorrect,
                ))
        if link is not None:
            link.join()

    return bundle, record, proj


def run_experiment(cfg: ExperimentConfig, seed: int, out_dir) -> A.MetricsRecord:
    """Train one configuration end to end and write metrics.csv, model.txt and
    features.csv into out_dir. The proxy A-distance of the final features is
    computed in a forked child while the files are written (``analysis.forked``),
    so the parent never holds the features; the child leaves the float's 8
    bytes in a shared mapping, so the value is the inline one."""
    cfg.validate()
    src, tgt = cfg.make_dataset(seed)
    for labeled, key, path in ((src, "dataset.n_source", cfg.source_csv), (tgt, "dataset.n_target", cfg.target_csv)):
        if labeled.n < A.ADIST_MIN_ROWS:
            raise ConfigError(f"{path or key}: {labeled.n} rows, fewer than the {A.ADIST_MIN_ROWS} "
                              "per domain that the A-distance probe needs")
    os.makedirs(out_dir, exist_ok=True)
    bundle, record, proj = train(cfg, seed, src, tgt)

    def probe(link: A.Link) -> None:
        f_src = N.forward_F(bundle, Tensor(src.x)).data
        f_tgt = N.forward_F(bundle, Tensor(tgt.x)).data
        link.shared[0] = A.proxy_a_distance(f_src, f_tgt, derived_seed(seed, _STREAM_ADIST))

    with A.forked("A-distance probe", probe) as link:
        _write_metrics(record, os.path.join(out_dir, "metrics.csv"))
        extra = {"proj.R_f": proj.r_f.data, "proj.R_g": proj.r_g.data} if proj is not None else None
        meta = {"proj.sampler": proj.sampler, "proj.seed": str(proj.seed)} if proj is not None else None
        N.save_model(bundle, os.path.join(out_dir, "model.txt"), extra_arrays=extra, meta=meta)
        A.export_features(bundle, [src, tgt], os.path.join(out_dir, "features.csv"))
        link.join()
        record.a_distance = float(link.shared[0])
    return record


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _write_metrics(record: A.MetricsRecord, path) -> None:
    with open(path, "w") as fh:
        fh.write(METRICS_HEADER + "\n")
        for m in record.epochs:
            fh.write(",".join(_fmt(getattr(m, f.name)) for f in fields(m)) + "\n")


@dataclass
class CompareRow:
    variant: str
    seed: int
    acc_tgt: float
    dist_a: float


def compare(cfg: ExperimentConfig, variants: list[str], seeds: list[int], out_dir) -> list[CompareRow]:
    """Run every (variant, seed) pair into its own directory and write summary.csv."""
    if not variants:
        raise ConfigError("--variants must list at least one variant")
    for flag, values in (("--variants", variants), ("seeds", seeds)):
        if len(set(values)) != len(values):
            raise ConfigError(f"{flag} must not repeat a value, got {','.join(map(str, values))}")
    if len(variants) < 2 and len(seeds) < 2:
        raise ConfigError("compare needs at least two variants or at least two seeds")
    vcfgs = {variant: apply_variant(cfg, variant) for variant in variants}
    for variant, vcfg in vcfgs.items():
        tag = vcfg.resolve_strategy().tag
        if "@" in variant and tag != C.RANDOMIZED_MULTILINEAR:
            raise ConfigError(f"variant {variant!r} sets a sampler, but its map is {tag}, not "
                              f"{C.RANDOMIZED_MULTILINEAR} (see --conditioning.threshold)")
    rows: list[CompareRow] = []
    for variant, vcfg in vcfgs.items():
        for seed in seeds:
            run_dir = os.path.join(out_dir, variant.replace("@", "_"), f"seed_{seed}")
            record = run_experiment(vcfg, seed, run_dir)
            rows.append(CompareRow(variant, seed, record.final_target_accuracy, record.a_distance))
    _write_summary(rows, variants, os.path.join(out_dir, "summary.csv"))
    return rows


def _write_summary(rows: list[CompareRow], variants: list[str], path) -> None:
    with open(path, "w") as fh:
        fh.write("variant,seed,acc_tgt,dist_a,acc_tgt_std,dist_a_std\n")
        for row in rows:
            fh.write(f"{row.variant},{row.seed},{_fmt(row.acc_tgt)},{_fmt(row.dist_a)},,\n")
        for variant in variants:
            accs = np.array([r.acc_tgt for r in rows if r.variant == variant])
            dists = np.array([r.dist_a for r in rows if r.variant == variant])
            fh.write(f"{variant},mean,{_fmt(accs.mean())},{_fmt(dists.mean())},"
                     f"{_fmt(accs.std())},{_fmt(dists.std())}\n")


def verify_theorem1(d_list: list[int], n_resamples: int, samplers: list[str], seed: int,
                    d_f: int = 16, d_g: int = 8) -> tuple[list[A.Theorem1Result], bool]:
    """Sweep the randomized dimension and report the unbiasedness gate per row.

    Returns (results, all_gates_passed). The quadruple is a fixed unit-norm
    draw from the seed.
    """
    rng = np.random.default_rng([seed, 31])
    def unit(k):
        v = rng.standard_normal(k)
        return v / np.linalg.norm(v)
    f, f2 = unit(d_f), unit(d_f)
    g, g2 = unit(d_g), unit(d_g)
    results = []
    ok = True
    for sampler in samplers:
        for d in d_list:
            res = A.theorem1_verify(f, g, f2, g2, d=d, n_resamples=n_resamples,
                                    sampler=sampler, seed=seed)
            ok = ok and res.unbiased_within()
            results.append(res)
    return results, ok
