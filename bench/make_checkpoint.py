"""Rebuild the frozen checkpoint that the train and infer workloads start from.

The recipe is the reference run of the acceptance gate: the toy CBAM model
built from model seed 0, trained with ``TrainConfig.toy(seed=0)`` on 24
synthetic scenes from train seed 1001 (312 steps). The script writes the
rebuilt checkpoint to ``.bench_build/cbam_toy.npz`` at the repository root
and compares its sha256 with the one recorded in ``fixtures/cbam_toy.json``.
Only ``--write`` touches the fixture: it copies the rebuilt file over
``fixtures/cbam_toy.npz`` and rewrites the metadata (model config, seeds,
sha256) to match. The benchmark only verifies that checksum; it never
retrains.

    python3 bench/make_checkpoint.py            # rebuild and compare the hash
    python3 bench/make_checkpoint.py --write    # also replace the fixture
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REBUILT = os.path.join(ROOT, ".bench_build", "cbam_toy.npz")

MODEL_SEED = 0
TRAIN_SEED = 1001
TRAIN_IMAGES = 24


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="replace fixtures/cbam_toy.npz and its metadata with the rebuilt checkpoint")
    args = parser.parse_args(argv)

    # one BLAS thread, as in the benchmark: the summation order of a
    # threaded matmul could change the trained weights in the last bits
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("ATTNMASK_SEED", None)
    sys.path.insert(0, HERE)
    from workloads import FIXTURE_META, file_sha256

    from attnmask.model import ModelConfig, build_model, save_checkpoint
    from attnmask.synth import SynthSpec, dataset_hash, synth_dataset
    from attnmask.train import TrainConfig, train

    spec = SynthSpec()
    data = synth_dataset(spec, TRAIN_SEED, TRAIN_IMAGES)
    mcfg = ModelConfig.toy("cbam", num_classes=spec.num_classes)
    tcfg = TrainConfig.toy(seed=MODEL_SEED)
    model = build_model(mcfg, seed=MODEL_SEED)
    t0 = time.perf_counter()
    result = train(model, data, tcfg)
    elapsed = time.perf_counter() - t0
    os.makedirs(os.path.dirname(REBUILT), exist_ok=True)
    save_checkpoint(model, REBUILT)
    digest = file_sha256(REBUILT)
    print(f"{len(result.records)} steps in {elapsed:.1f}s, final loss "
          f"{result.records[-1].l_total:.6f}; sha256 {digest} ({REBUILT})")

    if args.write:
        with open(FIXTURE_META, encoding="utf-8") as fh:
            checkpoint = os.path.join(os.path.dirname(FIXTURE_META), json.load(fh)["checkpoint"])
        shutil.copyfile(REBUILT, checkpoint)
        meta = {
            "checkpoint": os.path.basename(checkpoint),
            "sha256": file_sha256(checkpoint),
            "model_config": dataclasses.asdict(mcfg),
            "model_seed": MODEL_SEED,
            "train_seed": TRAIN_SEED,
            "train_images": TRAIN_IMAGES,
            "train_config": dataclasses.asdict(tcfg),
            "synth_spec": dataclasses.asdict(spec),
            "train_dataset_sha256": dataset_hash(data),
            "steps": len(result.records),
            "final_loss": result.records[-1].l_total,
            "param_count": model.param_count(),
        }
        with open(FIXTURE_META, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2)
            fh.write("\n")
        print(f"{checkpoint} and {FIXTURE_META} rewritten")
        return 0

    with open(FIXTURE_META, encoding="utf-8") as fh:
        recorded = json.load(fh)["sha256"]
    if digest != recorded:
        print(f"rebuilt checkpoint differs from the recorded sha256 {recorded}; the fixture is unchanged")
        return 1
    print("rebuilt checkpoint matches the recorded sha256")
    return 0


if __name__ == "__main__":
    sys.exit(main())
