"""One set-up in a fresh interpreter, normalized to a reference host.

    python3 bench/probe.py spectral|engine|cli SEED

run from the root of a checkout, prints one JSON object: ``setup_s`` and
the raw parts it is made of.  For ``spectral`` and ``engine`` the set-up
is importing ``symcap`` (from the checkout's ``src``) and building the
workload's inputs; for ``cli`` it is ``cap --version`` run as
``python -m symcap.cli`` runs it, which is almost all import.

On a shared host a fresh interpreter runs in a fast or a slow state, about
1.5x apart, that switches within seconds, so raw set-up times of one run
split into two clusters.  Each kind of work tracks its own kind: importing
``symcap`` slows as much as importing standard-library modules does, and
building the inputs as much as the ``Fraction`` loop of ``calibration.py``.
So this process first imports ``REFERENCE_MODULES`` (modules ``symcap``
does not use, timed before ``symcap`` is loaded, so no change to it can
move them), then does the set-up, then runs the loop, and scales each part
by its own reference.  Over about 300 probes of each workload on a shared
2-vCPU host, a raw set-up in the slow state took 1.6-1.7x as long as in
the fast one; scaled, 0.99-1.02x, and the spread (interquartile distance
over median) of all probes fell from 0.47-0.60 to 0.04-0.06.  Modules the
benchmark itself needs first (``fractions``, ``dataclasses``, ``random``)
are loaded before the clock starts.
"""

import json
import runpy
import sys
import time
from pathlib import Path

REFERENCE_MODULES = ("plistlib", "imaplib", "ftplib", "xml.sax", "pickletools", "calendar")
REFERENCE_IMPORT_S = 0.025  # their import time on the reference host
CALIBRATION_RUNS = 5

clock = time.perf_counter
root = Path.cwd()
sys.path[:0] = [str(Path(__file__).resolve().parent), str(root / "src")]
workload, seed = sys.argv[1], int(sys.argv[2])
mod = None if workload == "cli" else __import__(workload)

start = clock()
for name in REFERENCE_MODULES:
    __import__(name)
reference_s = clock() - start

start = clock()
if mod is None:
    sys.argv = ["cap", "--version"]
    try:
        runpy.run_module("symcap.cli", run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise
    import_s, build_s = clock() - start, 0.0
else:
    api = mod.make_api()
    import_s = clock() - start
    start = clock()
    mod.build(api, root, seed)
    build_s = clock() - start

origin = Path(sys.modules["symcap"].__file__).resolve()
if root / "src" not in origin.parents:
    sys.exit(f"imported symcap from {origin}, not from {root / 'src'}")

from calibration import REFERENCE_S, calibration_unit  # noqa: E402  (after the set-up, on purpose)

loop_s = []
for _ in range(CALIBRATION_RUNS):
    start = clock()
    calibration_unit()
    loop_s.append(clock() - start)
loop_s = min(loop_s)  # whatever disturbs one loop only slows it
print(json.dumps({
    "setup_s": import_s * REFERENCE_IMPORT_S / reference_s + build_s * REFERENCE_S / loop_s,
    "import_s": import_s,
    "build_s": build_s,
    "reference_s": reference_s,
    "loop_s": loop_s,
}))
