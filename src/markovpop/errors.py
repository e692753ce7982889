"""Exception hierarchy shared across the package, and what a failed command leaves on disk.

Two error families map onto the CLI exit codes: configuration /
validation problems (exit code 1) and input-data problems (exit code 2).
"""

import os
from contextlib import contextmanager, suppress


class MarkovPopError(Exception):
    """Base class for all package errors; `problems` are listed below the message."""

    exit_code = 1

    def __init__(self, message, problems=None):
        if problems:
            shown = list(problems)[:25]
            message = message + "\n" + "\n".join("  - " + p for p in shown)
            if len(problems) > len(shown):
                message += f"\n  ... and {len(problems) - len(shown)} more"
        super().__init__(message)
        self.problems = list(problems) if problems else []


class ConfigError(MarkovPopError):
    """Invalid configuration, flags, or model/horizon validation failure (exit code 1)."""


class HorizonError(ConfigError):
    """Projection horizon does not fit the configured age range."""


class DataError(MarkovPopError):
    """Malformed or inconsistent input data (records, reserve, salary scale)."""

    exit_code = 2


@contextmanager
def atomic(path):
    """A hidden temporary beside `path`, renamed onto it when the block completes, else removed."""
    target = os.path.realpath(path)  # a symlink is written through to its target
    if os.path.exists(target) and not os.path.isfile(target):  # a FIFO or device: in place
        yield target
        return
    folder, prefix = os.path.dirname(target), f".{os.path.basename(target)}."
    with suppress(OSError):  # a folder that cannot be listed is not swept
        for name in os.listdir(folder):  # temporaries of killed runs, whose process is gone
            pid = name[len(prefix):-len(".tmp")]
            if name.startswith(prefix) and name.endswith(".tmp") and pid.isdecimal():
                with suppress(PermissionError, OverflowError, FileNotFoundError):  # live or swept
                    try:
                        os.kill(int(pid), 0)
                    except ProcessLookupError:
                        os.remove(os.path.join(folder, name))
    tmp = os.path.join(folder, f"{prefix}{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, target)
    except OSError as exc:
        if exc.filename == tmp:  # the error names the path as given, not the temporary
            exc.filename = os.fspath(path)
        raise
    finally:
        if os.path.lexists(tmp):
            os.remove(tmp)
