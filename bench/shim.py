"""Traced job: run one `fraclat` invocation with every module wrapped in spans.

    python bench/shim.py SPANS_PATH JOB_ID -- fraclat-args...

Times the import of fraclat.cli as a span, installs the wrappers, calls
fraclat.cli.main(argv) and writes the spans to SPANS_PATH as JSON lines.
The root span 'job' runs from the shim's first statement to the end of
main; its self time is the shim's own cost.  Each span line carries JOB_ID.
Exits with main's exit code.
"""
import time

_T0 = time.monotonic()

import sys  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    path, job = sys.argv[1], sys.argv[2]
    if sys.argv[3] != "--":
        raise SystemExit("usage: shim.py SPANS_PATH JOB_ID -- fraclat-args...")
    rec = spans.Recorder()
    root = rec.open("job")
    root[spans.START] = _T0
    span = rec.open("cli.import")
    import fraclat.cli

    rec.close(span)
    spans.install(rec)
    span = rec.open("cli.main")
    try:
        code = fraclat.cli.main(sys.argv[4:])
    finally:
        rec.close(span)
        sys.stdout.flush()
        rec.close(root)
        rec.dump(path, job)
    return code


if __name__ == "__main__":
    sys.exit(main())
