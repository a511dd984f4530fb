"""Record the expected answers of every request of every instance.

Run once, from the root of a checkout of the commit whose answers are taken
as correct:

    python3 perfbench/record.py

It writes ``perfbench/expected.json``: for each instance index, the
sha256 of every generated input file, the optimal witnesses that the
``cli_certify.verify`` part certifies, and the checked fields (see
check.py) of every request's answer.  Requests run in this process through
``securedom.cli.main``; a traceback or an unparsable answer aborts the
recording.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import check
import workloads


def main() -> int:
    record: dict = {"pool_size": workloads.POOL_SIZE, "inputs": {}, "witnesses": {}, "requests": {}}
    workdir = os.path.join(run.HERE, ".work", f"record-{os.getpid()}")
    for index in range(workloads.POOL_SIZE):
        key = str(index)
        inputs = record["inputs"][key] = {}
        witnesses = record["witnesses"][key] = {}
        answers = record["requests"][key] = {}
        for part in workloads.PARTS:
            os.makedirs(workdir)
            try:
                requests, inputs[part] = workloads.build_part(part, index, workdir, witnesses)
                answers[part] = {}
                for request in requests:
                    code, stdout, stderr = run.call_in_process(request)
                    got = check.answer(request.argv[0], code, stdout)
                    if "Traceback" in stderr or got.get("unparsed"):
                        print(f"{index} {part} {request.id}: bad answer\n{stderr}", file=sys.stderr)
                        return 1
                    answers[part][request.id] = got
                    if part == "cli_certify.gamma":
                        witnesses[request.id.split(":", 1)[1]] = json.loads(stdout)["witness"]
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"instance {index} {part}: {len(requests)} answers", flush=True)
    with open(os.path.join(run.HERE, "expected.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
