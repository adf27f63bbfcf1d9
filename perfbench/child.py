"""Run superpanel CLI stages in this process and report how they went.

Usage: python3 perfbench/child.py SPEC.json

SPEC names the checkout root, the working directory, the CLI argument lists
to run in order through ``superpanel.cli.main``, the output files to digest,
whether to trace, and where to write the result. Each stage is timed with
``time.perf_counter`` around ``cli.main``; interpreter start and imports are
not part of any stage. The run stops at the first stage that fails.
"""

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.encode("utf-8") + b"\0")
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    from superpanel import cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    os.chdir(spec["workdir"])
    stages = []
    try:
        for argv in spec["stages"]:
            t0 = time.perf_counter()
            rc = cli.main(argv)
            stages.append({"command": argv[0], "rc": rc, "seconds": time.perf_counter() - t0})
            if rc != 0:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.save(spec["spans"])
    ok = all(s["rc"] == 0 for s in stages)
    result = {
        "stages": stages,
        "digest": digest(spec["outputs"]) if ok else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
