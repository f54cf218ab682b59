"""Child-process entry points; each runs in a fresh interpreter.

    child.py setup TASKS RESOURCES AGENTS
        Print the seconds from this script's first statement until
        ``import coalloc`` and the three input parsers are done.
    child.py trace SPANS_OUT -- ARGS...
        Run ``coalloc ARGS`` with layer spans and write them as JSON.
    child.py peak PEAK_OUT -- ARGS...
        Run ``coalloc ARGS`` under tracemalloc and write the peak in bytes.

``coalloc`` must be importable (the parent sets ``PYTHONPATH``).
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _setup(task_file: str, resource_file: str, agent_file: str) -> int:
    import coalloc

    coalloc.parse_task_file(Path(task_file).read_text())
    coalloc.parse_resource_file(Path(resource_file).read_text())
    coalloc.parse_agent_map(Path(agent_file).read_text())
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))
    return 0


def _trace(spans_out: str, argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.spans import Recorder, traced

    recorder = Recorder()
    with recorder.span("cli.import"):
        from coalloc import cli
    with traced(recorder), recorder.span("cli.main"):
        code = cli.main(argv)
    Path(spans_out).write_text(json.dumps(recorder.spans))
    return code


def _peak(peak_out: str, argv: list[str]) -> int:
    import tracemalloc

    tracemalloc.start()
    from coalloc import cli

    code = cli.main(argv)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    Path(peak_out).write_text(str(peak))
    return code


def main(args: list[str]) -> int:
    mode, *rest = args
    if mode == "setup":
        return _setup(*rest)
    out, sep, *argv = rest
    if sep != "--":
        raise SystemExit(f"usage: child.py {mode} OUT -- ARGS...")
    if mode == "trace":
        return _trace(out, argv)
    if mode == "peak":
        return _peak(out, argv)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
