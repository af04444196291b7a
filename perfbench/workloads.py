"""What each benchmark workload runs. Why each was chosen is in
BENCHMARK.json and README.md. Nothing here imports condada."""

# Keys of the flat config file the program reads; everything not named keeps
# the program's default (600/600 rotated blobs, 64-wide players, batch 64).
_TRAIN = {
    "dataset.classes": 3,
    "strategy": "auto",
    "entropy": "true",
}

WORKLOADS = {
    "train_cdan_e": {
        "kind": "train",
        "probe": "tape",
        "config": {**_TRAIN, "dataset.n_source": 600, "dataset.n_target": 600, "train.total_steps": 800},
    },
    "bulk_eval_export": {
        "kind": "train",
        "probe": "tape",
        "config": {**_TRAIN, "conditioning.threshold": 1, "train.total_steps": 300},
        "csv_rows": 6000,
        "reexport": True,
    },
    "verify_mc": {
        "kind": "verify",
        "probe": "monte_carlo",
        "dims": [64, 128, 256],
        "resamples": 20000,
        "samplers": ["gaussian", "uniform"],
    },
}
