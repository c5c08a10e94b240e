"""One fresh-interpreter invocation of the semsched CLI.

Usage: python3 perfbench/child.py JOB.json

JOB.json holds {"config": path, "argv": [...] or null, "trace": bool,
"run_id": str, "result": path}. The child imports `semsched.cli` and
parses the config (the set-up every CLI call pays), notes the monotonic
clock, then calls `semsched.cli.main(argv)` exactly as the `semsched`
console script does. With "trace" set, spans.install wraps the layers'
entry points first. With "argv" null it stops after set-up. The result
file gets the set-up end time, the exit code and any spans; the process
exits with the CLI's exit code.
"""

import json
import sys
import time


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        job = json.load(fh)
    import semsched.cli as cli
    from semsched.core import load_config

    load_config(job["config"])
    out = {"t_ready": time.monotonic(), "rc": 0}
    if job["argv"] is not None:
        if job["trace"]:
            import spans

            rec = spans.Recorder(job["run_id"])
            spans.install(rec)
            out["rc"] = rec.call("cli.main", cli.main, (job["argv"],))
            out["spans"] = rec.spans
        else:
            out["rc"] = cli.main(job["argv"])
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return out["rc"]


if __name__ == "__main__":
    sys.exit(main())
