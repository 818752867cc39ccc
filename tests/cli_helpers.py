"""Shared helper for exercising ``python -m repro`` in-process.

``cli.main`` returns an int exit code; argparse rejections (an unknown
command, option or key, a contradictory value) raise ``SystemExit(2)``
after writing the reason to stderr.  :func:`run_cli` folds both into one
:class:`CLIResult` so CLI tests can assert on exit code, stdout and stderr
uniformly without sprinkling ``pytest.raises`` everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import __main__ as cli


@dataclass(frozen=True)
class CLIResult:
    code: int
    out: str
    err: str


def run_cli(argv, capsys) -> CLIResult:
    """Run ``python -m repro`` with ``argv`` and capture the outcome."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors, --help
        code = exc.code or 0
    captured = capsys.readouterr()
    return CLIResult(code=code, out=captured.out, err=captured.err)
