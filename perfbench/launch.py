"""Run one `lexdiv` CLI command with two timers and report them as JSON.

Usage: python3 launch.py TIMINGS_JSON LEXDIV_ARG...

The command runs exactly as `python -m lexdiv.cli LEXDIV_ARG...` would.  The
only additions are a timer around the call that loads the corpus and a timer
around the library call that computes the scores (`run_method` or
`parameter_sweep`).  They are installed under every module name the CLI could
look the functions up by, so they keep working if the CLI is reorganised.
Times are CLOCK_MONOTONIC, which the parent process shares, so the parent can
measure set-up time from its own spawn timestamp.
"""

import functools
import json
import sys
import time

import lexdiv
import lexdiv.cli
import lexdiv.corpus
import lexdiv.sampling

record = {"corpus_loaded_at": None, "library_s": 0.0, "library_calls": 0}
_depth = [0]


def _timed(fn, on_done):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _depth[0] += 1
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            _depth[0] -= 1
            if _depth[0] == 0:
                on_done(start, time.monotonic())
    return wrapper


def _loaded(_start, end):
    record["corpus_loaded_at"] = end


def _library(start, end):
    record["library_s"] += end - start
    record["library_calls"] += 1


def _install(name, on_done, modules):
    for module in modules:
        fn = getattr(module, name, None)
        if fn is not None:
            setattr(module, name, _timed(fn, on_done))


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    _install("load_corpus", _loaded, (lexdiv, lexdiv.cli, lexdiv.corpus))
    for name in ("run_method", "parameter_sweep"):
        _install(name, _library, (lexdiv, lexdiv.cli, lexdiv.sampling))
    rc = lexdiv.cli.main(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
