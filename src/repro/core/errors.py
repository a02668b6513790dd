"""Error hierarchy mirroring LAMMPS's error classes."""

from __future__ import annotations


class LammpsError(Exception):
    """Base class for all engine errors."""


class InputError(LammpsError):
    """Malformed input-script command (LAMMPS's ``Error::all`` on parse)."""


class StyleError(LammpsError):
    """Unknown or incompatible style (pair/fix/compute) request."""


class DomainError(LammpsError):
    """Invalid simulation box or region geometry."""


class NeighborError(LammpsError):
    """Neighbor-list construction failure (e.g. cutoff exceeds subdomain)."""


class CommError(LammpsError):
    """Ghost-atom communication failure (e.g. lost atoms)."""


class OverflowGuardError(LammpsError):
    """A data structure exceeded its index type's range (appendix B)."""


def unknown_choice(kind, got, choices, *, extra=""):
    """Error text for a bad name from a closed set, with a did-you-mean hint.

    Shared by the scatter-mode setter, the autotuner, and the
    ``--tools`` factory so every "unknown X" message reads the same way:
    the offending name, the closest registered match, and the full choice
    list.  ``extra`` is appended verbatim after the list.
    """
    import difflib

    names = [str(c) for c in choices]
    close = difflib.get_close_matches(str(got), names, n=1)
    hint = f" (did you mean {close[0]!r}?)" if close else ""
    return (f"unknown {kind} {got!r}{hint}; "
            f"expected one of: {', '.join(names)}{extra}")
