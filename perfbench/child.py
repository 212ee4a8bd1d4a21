"""One cold-interpreter step of a benchmark workload: a single CLI call.

    python3 perfbench/child.py STEP_DIR [--trace] ARG...

Imports ``mdi_sarg04``, writes the import time in seconds to
``STEP_DIR/import_s``, then runs the package's command-line entry point with
``ARG...`` and exits with its code.  With ``--trace`` the package's layer
functions are wrapped first and the spans go to ``STEP_DIR/spans.json``.
"""

import sys
import time


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    import mdi_sarg04  # noqa: F401

    import_s = time.perf_counter() - start
    step_dir, args = argv[0], argv[1:]
    with open(f"{step_dir}/import_s", "w", encoding="utf-8") as fh:
        fh.write(repr(import_s))
    if args[:1] == ["--trace"]:
        import tracer

        tracer.install(f"{step_dir}/spans.json")
        args = args[1:]
    from mdi_sarg04.cli import main as cli_main

    return cli_main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
