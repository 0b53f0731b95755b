"""CPU time and memory of the program's processes, read from ``/proc``.

A served workload's program is a ``repro serve`` process started in a
session of its own plus the fleet workers it forks, so the members of
that process group are the program's processes.
"""

from __future__ import annotations

import os

_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str]:
    """Fields of ``/proc/<pid>/stat`` after the parenthesised command
    name (so index 0 is the state, field 3 of proc(5))."""
    with open(f"/proc/{pid}/stat") as fh:
        raw = fh.read()
    return raw[raw.rindex(")") + 2 :].split()


def group_members(pgid: int) -> list[int]:
    """Live pids whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _stat_fields(int(entry))
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited while we looked
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return sorted(members)


def cpu_seconds(pids: list[int]) -> dict[int, float]:
    """User plus system CPU seconds of each still-live pid."""
    out = {}
    for pid in pids:
        try:
            fields = _stat_fields(pid)
        except (FileNotFoundError, ProcessLookupError):
            continue
        out[pid] = (int(fields[11]) + int(fields[12])) / _TICKS_PER_S
    return out


def peak_rss_mb(pid: int) -> float:
    """High-water resident set size (``VmHWM``) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
