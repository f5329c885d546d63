"""One fresh-interpreter ``import infoqm``, with the machine's speed sampled
during it.  Prints ``{"factor": ..., "spent_s": ...}``: the speed factor
over the import and the seconds the sampler took (see bench_speed.py).

    PYTHONPATH=src python3 perfbench/import_probe.py
"""

import json

from bench_speed import SpeedSampler

with SpeedSampler() as sampler:
    import infoqm  # noqa: F401

print(json.dumps({"factor": sampler.factor(0, len(sampler.cost)), "spent_s": sampler.spent}))
