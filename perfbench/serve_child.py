"""Traced ``--serve`` launcher: the server child of a traced run.

    python perfbench/serve_child.py SPANS.json --port 0 --cache-dir DIR

Installs the benchmark's span wrappers (engine and serve layers) into a
normal ``python -m repro --serve`` process, serves until shut down, then
writes every span and counter to ``SPANS.json`` once.  HTTP handler
spans carry the client's op id from the ``X-Bench-Op`` header; job
execution spans carry ``job:<id>``, which the client maps back to its op.
"""

import os
import sys


def main(argv) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    span_path, serve_args = argv[0], argv[1:]

    import repro.cli
    import repro.serve.server  # noqa: F401 - load every module the wrappers patch
    import spans

    rec = spans.Recorder()
    spans.install_engine(rec)
    spans.install_server(rec)
    code = repro.cli.main(["--serve", *serve_args])
    spans.dump(rec, span_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
