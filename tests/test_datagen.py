"""Generators, CSV ingestion, batching, and the target-label firewall."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import condada.datagen as D
from condada.config import ExperimentConfig
from condada.errors import ConfigError
from condada.runner import apply_variant, run_experiment


def test_rotated_blobs_deterministic_per_seed():
    spec = D.ShiftSpec(seed=123)
    s1, t1 = D.generate(spec)
    s2, t2 = D.generate(spec)
    assert s1.x.tobytes() == s2.x.tobytes()
    assert t1.x.tobytes() == t2.x.tobytes()
    assert s1.y.tobytes() == s2.y.tobytes()


def test_rotated_blobs_equal_class_priors():
    src, tgt = D.generate(D.ShiftSpec(n_source=600, n_target=600, n_classes=3))
    for labeled in (src, tgt):
        counts = np.bincount(labeled.y, minlength=3)
        np.testing.assert_array_equal(counts, [200, 200, 200])


def test_rotated_blobs_rejects_uneven_class_split():
    with pytest.raises(ConfigError, match="divide evenly"):
        D.ShiftSpec(n_source=601)


def test_rotated_blobs_target_cluster_sits_nearest_next_class():
    # At the near-2pi/C rotation regime the target cluster of class c lands
    # closest to the source cluster of class c+1.
    spec = D.ShiftSpec(rotation_deg=100.0, noise=0.5, seed=7)
    src, tgt = D.generate(spec)
    src_means = np.stack([src.x[src.y == c].mean(axis=0) for c in range(3)])
    for c in range(3):
        tgt_mean = tgt.x[tgt.y == c].mean(axis=0)
        nearest = int(np.argmin(np.linalg.norm(src_means - tgt_mean, axis=1)))
        assert nearest == (c + 1) % 3


def test_zero_rotation_target_is_fresh_draw_from_source_law():
    src, tgt = D.generate(D.ShiftSpec(rotation_deg=0.0, seed=3))
    assert src.x.tobytes() != tgt.x.tobytes()  # fresh noise, not a copy
    for c in range(3):
        np.testing.assert_allclose(src.x[src.y == c].mean(axis=0),
                                   tgt.x[tgt.y == c].mean(axis=0), atol=0.2)


def test_zero_rotation_source_classifier_transfers(tmp_path):
    # A source-only pipeline should score highly on an identically distributed target.
    cfg = apply_variant(ExperimentConfig(rotation_deg=0.0, total_steps=600), "source_only")
    record = run_experiment(cfg, 0, tmp_path)
    assert record.final_target_accuracy > 0.95


def test_per_class_rotations_turn_each_class_by_its_own_angle():
    _, still = D.generate(D.ShiftSpec(rotation_deg=0.0, seed=4))
    _, turned = D.generate(D.ShiftSpec(rotation_deg=(0.0, 90.0, 180.0), seed=4))
    np.testing.assert_array_equal(turned.y, still.y)
    for c, deg in enumerate((0.0, 90.0, 180.0)):
        theta = np.deg2rad(deg)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        np.testing.assert_allclose(turned.x[turned.y == c], still.x[still.y == c] @ rot.T, atol=1e-12)


@pytest.mark.parametrize("classes", [2, 4, 5])
def test_blobs_without_class_angles_sit_evenly_on_the_circle(classes):
    src, _ = D.generate(D.ShiftSpec(n_classes=classes, n_source=200 * classes, noise=0.05, seed=1))
    angles = 2.0 * np.pi * np.arange(classes) / classes
    want = 4.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    got = np.stack([src.x[src.y == c].mean(axis=0) for c in range(classes)])
    np.testing.assert_allclose(got, want, atol=0.02)


def test_moons_balance_and_determinism():
    spec = D.ShiftSpec(generator="twin_moons_shift", n_classes=2, n_source=1000, n_target=1000, seed=11)
    src, tgt = D.generate(spec)
    np.testing.assert_array_equal(np.bincount(src.y), [500, 500])
    np.testing.assert_array_equal(np.bincount(tgt.y), [500, 500])
    s2, _ = D.generate(spec)
    assert src.x.tobytes() == s2.x.tobytes()


def test_moons_zero_rotation_same_law():
    spec = D.ShiftSpec(generator="twin_moons_shift", n_classes=2, rotation_deg=0.0, seed=5,
                       n_source=2000, n_target=2000)
    src, tgt = D.generate(spec)
    np.testing.assert_allclose(src.x.mean(axis=0), tgt.x.mean(axis=0), atol=0.1)
    np.testing.assert_allclose(src.x.std(axis=0), tgt.x.std(axis=0), atol=0.1)


def test_moons_half_turn_swaps_sides(tmp_path):
    # Rotating the target by 180 degrees maps each moon onto the other, so a
    # source-trained classifier does worse than chance.
    cfg = apply_variant(
        ExperimentConfig(generator="twin_moons_shift", n_classes=2, rotation_deg=180.0,
                         total_steps=600),
        "source_only")
    record = run_experiment(cfg, 0, tmp_path)
    assert record.final_target_accuracy < 0.5


def test_moons_requires_two_classes():
    with pytest.raises(ConfigError, match="2-class"):
        D.generate(D.ShiftSpec(generator="twin_moons_shift", n_classes=3, n_source=6, n_target=6))


def test_csv_round_trip_is_exact(tmp_path):
    src, _ = D.generate(D.ShiftSpec(n_source=60, n_target=60, seed=2))
    path = tmp_path / "src.csv"
    D.save_csv(src, path)
    loaded = D.load_csv(path, domain="source", n_classes=3)
    assert loaded.x.tobytes() == src.x.tobytes()
    assert loaded.y.tobytes() == src.y.tobytes()


def test_save_csv_writes_the_repr_of_each_float(tmp_path):
    src, _ = D.generate(D.ShiftSpec(n_source=600, n_target=600, seed=0))
    D.save_csv(src, tmp_path / "src.csv")
    want = "x0,x1,label\n" + "".join(",".join(map(repr, row.tolist())) + f",{label}\n"
                                     for row, label in zip(src.x, src.y))
    assert (tmp_path / "src.csv").read_bytes() == want.encode("ascii")


def test_csv_header_is_optional(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("0.5,1.5,0\n-1.0,2.0,1\n")
    loaded = D.load_csv(path, domain="target")
    np.testing.assert_array_equal(loaded.y, [0, 1])
    np.testing.assert_array_equal(loaded.x, [[0.5, 1.5], [-1.0, 2.0]])


def test_a_header_after_blank_lines_is_a_header(tmp_path):
    src, _ = D.generate(D.ShiftSpec(n_source=30, n_target=30, seed=2))
    plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
    D.save_csv(src, plain)
    padded.write_text("\n" + plain.read_text())
    got, want = D.load_csv(padded), D.load_csv(plain)
    assert (got.x.tobytes(), got.y.tobytes()) == (want.x.tobytes(), want.y.tobytes())
    lines = padded.read_text().splitlines(keepends=True)
    lines[5] = "-inf," + lines[5].split(",", 1)[1]
    padded.write_text("".join(lines))
    with pytest.raises(ValueError) as info:
        D.load_csv(padded)
    assert str(info.value) == f"{padded}: non-finite feature at line 6"


@pytest.mark.parametrize("content,message", [
    ("0.5,1.5,0\n1.0,2\n", "ragged"),
    ("0.5,abc,0\n", "non-numeric"),
    ("0.5,1.5,2\n", "n_classes"),
    ("0.5,1.5,0.7\n", "non-integer label"),
    ("0.5,1.5,-1\n", "negative label"),
    ("0.5,nan,0\n", "non-finite feature at line 1"),
    ("x0,x1,label\n0.5,1.5,0\n\n-inf,1.5,1\n", "non-finite feature at line 4"),
    ("0.5\n", "need at least one feature column and a label column"),
    ("x0,x1,label\n\n", "no data rows"),
])
def test_csv_errors(tmp_path, content, message):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(ValueError, match=message) as info:
        D.load_csv(path, domain="target", n_classes=2)
    assert str(info.value).startswith(f"{path}: ")


def test_a_row_wider_than_the_header_is_the_one_named(tmp_path):
    # The header sets the width: the stray field on line 2 is the fault, not line 3.
    path = tmp_path / "wide.csv"
    path.write_text("x0,x1,label\n0.5,1.5,0,1\n-1.0,2.0,1\n")
    with pytest.raises(ValueError) as info:
        D.load_csv(path, domain="target", n_classes=2)
    assert str(info.value) == f"{path}: ragged row at line 2 (4 fields, expected 3)"


def test_a_source_csv_missing_a_class_is_named(tmp_path):
    path = tmp_path / "src.csv"
    path.write_text("0.5,1.5,0\n1.0,2.0,2\n")
    with pytest.raises(ValueError) as info:
        D.load_csv(path, domain="source", n_classes=3)
    assert str(info.value) == f"{path}: source set is missing classes [1]"


def _looks_like_header(fields: list[str]) -> bool:
    for token in fields:
        try:
            float(token)
            return False
        except ValueError:
            continue
    return True


def reference_load_csv(path, domain: str = "source", n_classes: int | None = None) -> D.LabeledSet:
    """The reader as a loop over lines, one ``float()`` per field: the values
    and messages that ``datagen.load_csv`` must reproduce."""
    rows: list[list[float]] = []
    labels: list[int] = []
    linenos: list[int] = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
                if width < 2:
                    raise ValueError(f"{path}: need at least one feature column and a label column")
                if _looks_like_header(fields):
                    continue
            elif len(fields) != width:
                raise ValueError(f"{path}: ragged row at line {lineno} ({len(fields)} fields, expected {width})")
            try:
                values = [float(v) for v in fields[:-1]]
            except ValueError as exc:
                raise ValueError(f"{path}: non-numeric field at line {lineno}") from exc
            raw_label = fields[-1].strip()
            try:
                label = int(raw_label)
            except ValueError as exc:
                raise ValueError(f"{path}: non-integer label at line {lineno}: {raw_label!r}") from exc
            if label < 0:
                raise ValueError(f"{path}: negative label at line {lineno}")
            if n_classes is not None and label >= n_classes:
                raise ValueError(f"{path}: label {label} >= n_classes {n_classes} at line {lineno}")
            rows.append(values)
            labels.append(label)
            linenos.append(lineno)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    labeled = D.LabeledSet(np.array(rows), np.array(labels), domain)
    finite = np.isfinite(labeled.x).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}: non-finite feature at line {linenos[finite.argmin()]}")
    if domain == "source" and n_classes is not None:
        present = set(labeled.y.tolist())
        missing = [c for c in range(n_classes) if c not in present]
        if missing:
            raise ValueError(f"{path}: source set is missing classes {missing}")
    return labeled


# \u0663 is ARABIC-INDIC DIGIT THREE; the spaces, which the casts skip, a message strips.
fuzz_token = st.tuples(st.sampled_from(["nan", "inf", "", "1e400", "\u0663", "0x10", "-1", "5", "0.25", "1"]),
                       st.sampled_from(["", " "])).map(lambda t: t[1] + t[0] + t[1])


def saved_lines() -> list[str]:
    """The lines that ``save_csv`` writes for a 9-row source set."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "saved.csv")
        D.save_csv(D.generate(D.ShiftSpec(n_source=9, n_target=9, seed=4))[0], path)
        with open(path) as fh:
            return fh.read().splitlines()


SAVED_LINES = saved_lines()


@st.composite
def mutated_csv(draw) -> str:
    """The saved lines, then drawn line and token mutations, then drawn line
    ends, leading blank lines and BOM."""
    lines = list(SAVED_LINES)
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.sampled_from(range(len(lines))))
        kind = draw(st.sampled_from(["delete", "duplicate", "swap", "truncate", "add", "drop", *["token"] * 4]))
        fields = lines[i].split(",")
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.sampled_from(range(len(lines))))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "truncate":  # the file ends within line i
            lines = lines[:i] + [lines[i][:draw(st.integers(0, len(lines[i])))]]
        elif kind == "token":
            fields[draw(st.sampled_from([-1, *range(len(fields))]))] = draw(fuzz_token)
            lines[i] = ",".join(fields)
        elif kind == "add":
            fields.insert(draw(st.sampled_from(range(len(fields) + 1))), draw(fuzz_token))
            lines[i] = ",".join(fields)
        else:
            del fields[draw(st.sampled_from(range(len(fields))))]
            lines[i] = ",".join(fields)
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))
    blank = "".join(draw(st.lists(st.sampled_from(["\n", " \t\n"]), max_size=2)))
    return blank + draw(st.sampled_from(["", "\ufeff"])) + text


def outcome(load, path, domain, n_classes):
    try:
        labeled = load(path, domain=domain, n_classes=n_classes)
    except ValueError as exc:
        return str(exc)
    return labeled.x.dtype, labeled.x.tobytes(), labeled.x.shape, labeled.y.dtype, labeled.y.tobytes()


@given(text=mutated_csv(), domain=st.sampled_from(["source", "target"]), n_classes=st.sampled_from([None, 3]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_a_mutated_csv_reads_as_the_line_loop_reads_it(tmp_path_factory, text, domain, n_classes):
    path = tmp_path_factory.getbasetemp() / "mutated.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(D.load_csv, path, domain, n_classes) == outcome(reference_load_csv, path, domain, n_classes)


def test_batch_iter_keeps_final_short_batch():
    labeled = D.LabeledSet(np.arange(20.0).reshape(10, 2), np.zeros(10, dtype=int), "source")
    sizes = [x.shape[0] for x, _ in D.batch_iter(labeled, 3, seed=0, epoch=0)]
    assert sizes == [3, 3, 3, 1]


def test_batch_iter_epoch_covers_every_example_once():
    labeled = D.LabeledSet(np.arange(26.0).reshape(13, 2), np.arange(13) % 2, "source")
    seen = np.concatenate([x[:, 0] for x, _ in D.batch_iter(labeled, 4, seed=3, epoch=1)])
    np.testing.assert_array_equal(np.sort(seen), labeled.x[:, 0])


def test_batch_iter_same_seed_epoch_same_order():
    labeled = D.LabeledSet(np.arange(20.0).reshape(10, 2), np.arange(10) % 2, "source")
    b1 = [x.tobytes() for x, _ in D.batch_iter(labeled, 4, seed=9, epoch=3)]
    b2 = [x.tobytes() for x, _ in D.batch_iter(labeled, 4, seed=9, epoch=3)]
    b3 = [x.tobytes() for x, _ in D.batch_iter(labeled, 4, seed=9, epoch=4)]
    assert b1 == b2
    assert b1 != b3


def test_target_labels_cannot_influence_training(tmp_path):
    # Poisoning the target labels must leave every trained byte identical:
    # training consumes target inputs only, labels exist for evaluation.
    cfg = apply_variant(ExperimentConfig(total_steps=120), "cdan_e")
    src, tgt = cfg.make_dataset(0)

    from condada.runner import train

    model_a, _, _ = train(cfg, 0, src, tgt)
    poisoned = D.LabeledSet(tgt.x, np.random.default_rng(1).permutation(tgt.y), "target")
    model_b, _, _ = train(cfg, 0, src, poisoned)
    for p, q in zip(model_a.all_params(), model_b.all_params()):
        assert p.data.tobytes() == q.data.tobytes()
