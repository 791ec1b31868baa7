"""Record the reference outputs of every input set from the current code.

    python3 perfbench/record.py [--workload NAME ...]

Writes ``perfbench/reference/<workload>.json``: for each of the input sets,
the sha256 of the generated WAV and RTTM files and the output of every
distinct request (hypothesis RTTM and score digests, ``maskeval.json``
digests, training loss histories). Run it only from a commit whose outputs
define "correct", and only when the inputs or requests change.
"""

import argparse
import json
import shutil
import sys

import run


def record(cls, work):
    from perfbench.workloads import POOL, _no_span, input_digests

    inputs = {}
    for index in range(POOL):
        wl = cls(index, reference={})
        directory = work / f"{cls.name}-{index}"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        wl.generate(directory)
        wl.load(directory)
        outputs = {}
        for i in range(cls.distinct_requests):
            for o in wl.request(i, _no_span):
                if o.error is not None:
                    raise SystemExit(f"{cls.name} input set {index} {o.label}: {o.error}")
                outputs[o.label] = o.output
        digests = {k: v for k, v in input_digests(directory).items()
                   if k.endswith((".wav", ".rttm"))}
        inputs[str(index)] = {"inputs": digests, "outputs": outputs}
        shutil.rmtree(directory)
        print(f"{cls.name}: input set {index} recorded", file=sys.stderr, flush=True)
    return inputs


def main(argv=None):
    from_args = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    from_args.add_argument("--workload", action="append",
                           help="workload to record (repeatable; default all)")
    args = from_args.parse_args(argv)
    if run.bootstrap() is None:
        return 2
    from perfbench.workloads import LOSS_RTOL, POOL, WORKLOADS

    for name in args.workload or sorted(WORKLOADS):
        cls = WORKLOADS[name]
        work = run.ROOT / ".bench_work" / f"record-{name}"
        doc = {"workload": name, "pool": POOL, "loss_rtol": LOSS_RTOL,
               "inputs": record(cls, work)}
        with open(cls.reference_path(), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
