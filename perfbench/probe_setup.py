"""Set-up probe: a fresh interpreter imports skf, resolves a config, builds the model.

Prints ``ready`` once the model exists; the parent times spawn to that line.
Arguments: ``<example1|example2> <trials> <eta> <seed>``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import skf  # noqa: E402
from skf.experiments import build_model  # noqa: E402

command, trials, eta, seed = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), int(sys.argv[4])
make = skf.example1_config if command == "example1" else skf.example2_config
build_model(make(trials=trials, eta=eta, seed=seed))
print("ready", flush=True)
