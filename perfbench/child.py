"""Child processes of the benchmark, started by run.py with lgmirror on the path.

    child.py cli <lgmirror CLI arguments>          one cold CLI verdict
    child.py traced-cli <lgmirror CLI arguments>   the same, traced
    child.py setup <workload> <seed>               set-up only, no verifier
    child.py census <seed> <0|1>                   the warm K3 census, traced if 1

Every mode runs under the host-speed sampler from its first line and prints
one JSON object, with the speed it saw, as its last line of standard output.
"""

from __future__ import annotations

import io
import json
import random
import sys
import time
from contextlib import redirect_stdout

import models
from sampler import Sampler
from tracer import Tracer


def build_model(w1_text: str, w2_text: str, gens_text: str):
    """The model (W1 + W2, sigma G); G defaults to J1 x J2, as in the CLI."""
    from lgmirror import bvlg, polyring

    w1 = polyring.parse_polynomial(w1_text)
    w2 = polyring.parse_polynomial(w2_text)
    return bvlg.build_bv(w1, w2, model_gens(w1, w2, gens_text))


def model_gens(w1, w2, gens_text: str = ""):
    from lgmirror import polyring, symmetry

    if gens_text:
        return symmetry.parse_group_elements(gens_text, w1.nvars + w2.nvars)
    j1 = symmetry.j_element(polyring.weight_system(w1)).components
    j2 = symmetry.j_element(polyring.weight_system(w2)).components
    return [
        symmetry.GroupElement(list(j1) + [0] * w2.nvars),
        symmetry.GroupElement([0] * w1.nvars + list(j2)),
    ]


def census_models(seed: int):
    """Enumerate the K3 catalog, sample every CENSUS_STRIDE-th of the 44
    invertible systems and pair each with E1 or E2, in an order, as the seed
    picks.  Returns [(label, model)]."""
    from lgmirror import bvlg, catalog, polyring

    records = catalog.filter_bv_invertible(catalog.enumerate_k3_systems())
    records = records[:: models.CENSUS_STRIDE]
    k3 = [catalog.sample_polynomial(r.weight_system) for r in records]
    curves = [polyring.parse_polynomial(t) for t in models.CENSUS_CURVES]
    rng = random.Random(seed)
    pairs = [(rng.randrange(len(curves)), i) for i in range(len(k3))]
    rng.shuffle(pairs)
    out = []
    for c, i in pairs:
        w1, w2 = curves[c], k3[i]
        label = f"E{c + 1}x{';'.join(map(str, records[i].weights))}"
        out.append((label, bvlg.build_bv(w1, w2, model_gens(w1, w2))))
    return out


def cli(argv, trace: bool) -> dict:
    """lgmirror.cli.main(argv) with its standard output captured."""
    import lgmirror.cli

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    captured = io.StringIO()
    with redirect_stdout(captured):
        rc = lgmirror.cli.main(argv)
    out = {"rc": rc, "stdout": captured.getvalue()}
    if tracer is not None:
        out["trace"] = summarize(tracer)
    return out


def summarize(tracer: Tracer) -> dict:
    """The tracer's summary, with the seconds spent making it."""
    start = time.perf_counter()
    out = tracer.summary()
    out["teardown_s"] = time.perf_counter() - start
    return out


def setup(workload: str, seed: int) -> dict:
    if workload == models.CENSUS:
        built = census_models(seed)
    else:
        built = [build_model(w1, w2, g) for _, _, w1, w2, g, _ in models.COLD[workload]]
    return {"models": len(built)}


def census(seed: int, trace: bool, sampler: Sampler) -> dict:
    """theorem1 and lgcy on every sampled model, in this one warm process."""
    from lgmirror import bvlg, chenruan

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    built = census_models(seed)
    verifiers = (("theorem1", bvlg.verify_theorem1), ("lgcy", chenruan.verify_lgcy))
    ops = []
    covered = hooked = 0.0  # within the verifier calls
    for label, model in built:
        for verb, verify in verifiers:
            if tracer is not None:
                covered -= tracer.covered_s
                hooked -= tracer.hook_s
            cpu = time.process_time()
            start = time.perf_counter()
            report = verify(model)
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu
            if tracer is not None:
                covered += tracer.covered_s
                hooked += tracer.hook_s
            speed = sampler.speed(start, start + wall)
            ops.append([label, verb, wall, cpu, speed, report.to_json()])
    out = {"ops": ops}
    if tracer is not None:
        out["trace"] = summarize(tracer)
        out["trace"].update(covered_s=covered, hook_s=hooked)
    return out


def main(argv) -> int:
    sampler = Sampler()
    sampler.start()
    mode, rest = argv[0], argv[1:]
    if mode in ("cli", "traced-cli"):
        result = cli(rest, mode == "traced-cli")
    elif mode == "setup":
        result = setup(rest[0], int(rest[1]))
    elif mode == "census":
        result = census(int(rest[0]), rest[1] == "1", sampler)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    sampler.stop()
    result["speed"] = sampler.speed()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
