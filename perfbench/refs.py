"""Regenerate the benchmark's references with the tree-walking interpreter.

    python3 perfbench/refs.py            # ladder, flow digests, eval text
    python3 perfbench/refs.py --print KEY...   # digests for app/mode/scale

The interpreter (``REPRO_EXEC=interp``) is the repo's oracle: every
reference here comes from it, never from the compiled path.  Writes
``refs/flows.json`` (the per-app scale ladder and one digest of
``result_to_dict`` per app/mode/scale) and ``refs/eval_all.txt`` (the
full ``python -m repro eval all`` text).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    APPS, EVAL_REF, FLOW_REFS, HOT_SCALE, MODES, ROOT, hermetic_environ,
    make_hermetic, scale_key,
)

#: distinct workloads per app, nearest scale 1.0 first
LADDER_LEN = 10
#: candidate scales are 1.0 +- k * STEP for k = 1..MAX_STEPS
STEP = 0.005
MAX_STEPS = 90


def interp_env() -> Dict[str, str]:
    env = hermetic_environ()
    env["REPRO_EXEC"] = "interp"
    return env


def build_ladder() -> Dict[str, List[float]]:
    """Per app, the scales nearest 1.0 whose workloads are distinct from
    each other and from the scale-1.0 workload."""
    from repro.analysis.profile import workload_fingerprint
    from repro.apps.registry import get_app

    ladder = {}
    candidates = sorted((round(1.0 + sign * k * STEP, 3)
                         for k in range(1, MAX_STEPS + 1)
                         for sign in (-1, 1)),
                        key=lambda s: (abs(s - 1.0), s))
    for name in APPS:
        app = get_app(name)
        seen = {workload_fingerprint(app.workload(HOT_SCALE))}
        scales = []
        for scale in candidates:
            fingerprint = workload_fingerprint(app.workload(scale))
            if fingerprint not in seen:
                seen.add(fingerprint)
                scales.append(scale)
            if len(scales) == LADDER_LEN:
                break
        ladder[name] = scales
    return ladder


def compute_digests(keys: List[str]) -> Dict[str, str]:
    """Run each app/mode/scale flow in this process (set ``REPRO_EXEC``
    before calling) and digest its result."""
    from repro import api
    from common import digest

    out = {}
    for key in keys:
        app, mode, scale = key.split("/")
        out[key] = digest(api.run_flow(app, mode, scale=float(scale)))
    return out


def _digests_in_children(keys: List[str]) -> Dict[str, str]:
    """Digest ``keys`` under the interpreter, one child per app."""
    by_app: Dict[str, List[str]] = {}
    for key in keys:
        by_app.setdefault(key.split("/")[0], []).append(key)
    digests: Dict[str, str] = {}
    for app_keys in by_app.values():
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--print",
             *app_keys],
            cwd=ROOT, env=interp_env(), stdout=subprocess.PIPE,
            check=True).stdout
        digests.update(json.loads(out))
    return digests


def regenerate() -> None:
    make_hermetic()
    ladder = build_ladder()
    keys = [scale_key(app, mode, scale)
            for app in APPS for mode in MODES
            for scale in [HOT_SCALE] + ladder[app]]
    # one key list per app: informed and uninformed at a size share
    # profiles, as they do inside any single process
    keys.sort(key=lambda k: (k.split("/")[0], k.split("/")[2]))
    eval_proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "eval", "all"], cwd=ROOT,
        env=interp_env(), stdout=subprocess.PIPE)
    digests = _digests_in_children(keys)
    eval_text, _ = eval_proc.communicate()
    if eval_proc.returncode != 0:
        raise SystemExit(f"eval all exited {eval_proc.returncode}")
    os.makedirs(os.path.dirname(FLOW_REFS), exist_ok=True)
    with open(FLOW_REFS, "w", encoding="utf-8") as fh:
        json.dump({"exec": "interp", "ladder": ladder,
                   "digests": dict(sorted(digests.items()))},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(EVAL_REF, "wb") as fh:
        fh.write(eval_text)
    print(f"{len(digests)} flow digests, eval all "
          f"{len(eval_text)} bytes")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--print", dest="keys", nargs="+", default=None,
                        metavar="APP/MODE/SCALE",
                        help="print interpreter digests of these flows")
    args = parser.parse_args(argv)
    if args.keys is None:
        regenerate()
        return 0
    make_hermetic()
    os.environ["REPRO_EXEC"] = "interp"
    print(json.dumps(compute_digests(args.keys)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
