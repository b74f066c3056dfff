"""Typed compile options: one declaration of every knob the compiler has.

:class:`CompileOptions` is the single source of truth for the
compiler's tunables — optimization level, cycle budget, cover
algorithm, execution mode, scheduler jitter, partial-compilation stop
point and persistent-cache placement.  The same object serves four
audiences:

* **library users** construct it directly (it is frozen and validated
  at construction, so an invalid combination can never travel);
* **the stage cache** derives its content keys from
  :meth:`CompileOptions.fingerprint`, a stable digest of the fields
  that determine compiled output — identical options hash identically
  across processes and machines;
* **serialization** uses :meth:`to_dict`/:meth:`from_dict` — the
  options echo in ``--json`` CLI output, batch manifests and any
  future remote-worker protocol all share this one schema;
* **the CLI** declares its compile-related flags exactly once through
  :meth:`add_to_parser`/:meth:`from_args`, so every subcommand agrees
  on names, types and defaults by construction.

Placement fields (``cache_dir``, ``disk_cache``) and the partial-stop
field (``stop_after``) deliberately do **not** enter the fingerprint:
they change where artifacts are stored or how far the chain runs,
never what any stage computes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Iterable

from .errors import OptionsError

#: Machine-independent optimization levels (:mod:`repro.opt`).
OPT_LEVELS = (0, 1, 2)

#: Edge-clique-cover algorithms for instruction-set imposition.
COVER_ALGORITHMS = ("greedy", "exact", "edge")

#: Program execution modes the assembler can emit.
MODES = ("loop", "once", "repeat")

#: Stage-boundary verification levels (:mod:`repro.analyze`).
#: ``off`` = trust the pipeline; ``boundaries`` = run the stage
#: verifiers after every boundary; ``strict`` = boundaries plus the
#: machine-code lint of the final image.
VERIFY_LEVELS = ("off", "boundaries", "strict")

#: Bump when the fingerprint's composition changes, so cache keys from
#: older checkouts can never collide with newer ones.
OPTIONS_FINGERPRINT_VERSION = 1

#: The JSON *wire* schema version :meth:`CompileOptions.to_dict` emits
#: and :meth:`CompileOptions.from_dict` accepts.  Bump on any breaking
#: change to the serialized shape (renamed field, changed meaning): a
#: newer client talking to an older server — or a stale batch manifest
#: replayed against a newer checkout — then fails loudly with an
#: :class:`OptionsError` instead of silently misreading the payload.
OPTIONS_SCHEMA_VERSION = 1

#: The fields that determine compiled output (and therefore enter the
#: fingerprint).  ``stop_after``/``cache_dir``/``disk_cache`` are
#: excluded by design: a partial compile's stage keys must equal the
#: full compile's, and cache placement must never invalidate a cache.
SEMANTIC_FIELDS = ("opt", "budget", "cover", "mode", "repeat",
                   "restarts", "seed")


def _stage_names() -> tuple[str, ...]:
    # Imported lazily: repro.pipeline imports this module (the request
    # carries a CompileOptions), so a module-level import would cycle.
    from .pipeline.stages import STAGE_NAMES

    return STAGE_NAMES


@dataclass(frozen=True)
class CompileOptions:
    """Every compile knob, validated and frozen.

    ============  =======================================================
    field         meaning (CLI flag)
    ============  =======================================================
    opt           machine-independent optimization level 0/1/2 (``-O``)
    budget        time-loop cycle budget, ``None`` = unconstrained
                  (``--budget``, must be >= 1)
    cover         edge-clique-cover algorithm (``--cover``)
    mode          program execution mode (``--mode``)
    repeat        repetition count for ``mode="repeat"`` (``--repeat``,
                  must be >= 1)
    restarts      extra jittered list-scheduler attempts
    seed          scheduler jitter seed
    stop_after    partial compilation: stop after this stage
                  (``--stop-after``)
    verify        stage-boundary verification: off/boundaries/strict
                  (``--verify``; read-only checks, never enters the
                  fingerprint)
    cache_dir     persistent stage-cache directory, ``None`` = the
                  ``$REPRO_CACHE_DIR`` / ``~/.cache/repro`` default
                  (``--cache-dir``)
    disk_cache    keep the persistent on-disk cache tier
                  (``--no-disk-cache`` clears it)
    ============  =======================================================
    """

    opt: int = 1
    budget: int | None = None
    cover: str = "greedy"
    mode: str = "loop"
    repeat: int = 1
    restarts: int = 0
    seed: int = 0
    stop_after: str | None = None
    verify: str = "off"
    cache_dir: str | None = None
    disk_cache: bool = True

    def __post_init__(self) -> None:
        # Bools are ints to isinstance() but not to the fingerprint's
        # canonical JSON (True != 1 there), so every integer field
        # rejects them — otherwise two "equal" options could produce
        # different stage-cache keys.
        if isinstance(self.opt, bool) or self.opt not in OPT_LEVELS:
            raise OptionsError(
                f"opt must be one of {OPT_LEVELS}, got {self.opt!r}")
        if self.budget is not None and (not isinstance(self.budget, int)
                                        or isinstance(self.budget, bool)
                                        or self.budget < 1):
            raise OptionsError(
                f"budget must be >= 1 (or None for unconstrained), "
                f"got {self.budget!r}")
        if self.cover not in COVER_ALGORITHMS:
            raise OptionsError(
                f"cover must be one of {COVER_ALGORITHMS}, "
                f"got {self.cover!r}")
        if self.mode not in MODES:
            raise OptionsError(
                f"mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.repeat, int) or isinstance(self.repeat, bool) \
                or self.repeat < 1:
            raise OptionsError(f"repeat must be >= 1, got {self.repeat!r}")
        if not isinstance(self.restarts, int) \
                or isinstance(self.restarts, bool) or self.restarts < 0:
            raise OptionsError(
                f"restarts must be >= 0, got {self.restarts!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise OptionsError(f"seed must be an int, got {self.seed!r}")
        if self.stop_after is not None and \
                self.stop_after not in _stage_names():
            raise OptionsError(
                f"unknown stage {self.stop_after!r}: expected one of "
                f"{', '.join(_stage_names())}")
        if self.verify not in VERIFY_LEVELS:
            raise OptionsError(
                f"verify must be one of {VERIFY_LEVELS}, "
                f"got {self.verify!r}")

    # ------------------------------------------------------------------
    # Value semantics

    def replace(self, **changes: Any) -> "CompileOptions":
        """A copy with ``changes`` applied (and re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-able dict of every field plus the wire-schema
        stamp — the one options schema JSON consumers (``batch
        --json``, ``explore --json``, the serve wire protocol) see."""
        payload = {"schema_version": OPTIONS_SCHEMA_VERSION}
        payload.update(dataclasses.asdict(self))
        return payload

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CompileOptions":
        """Inverse of :meth:`to_dict`; missing fields take their
        defaults, unknown fields are an error (typo safety).

        ``schema_version`` is optional (a pre-stamp payload reads as
        the current version) but when present must match
        :data:`OPTIONS_SCHEMA_VERSION` — a payload written by an
        incompatible wire schema is refused with a clear error, never
        half-read.
        """
        data = dict(data)
        version = data.pop("schema_version", OPTIONS_SCHEMA_VERSION)
        if version != OPTIONS_SCHEMA_VERSION:
            raise OptionsError(
                f"unsupported options schema_version {version!r} "
                f"(this build speaks version {OPTIONS_SCHEMA_VERSION})")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise OptionsError(
                f"unknown option field(s) {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})")
        return cls(**data)

    # ------------------------------------------------------------------
    # Content fingerprinting (feeds the stage-cache keys)

    def fingerprint(self, *names: str) -> str:
        """Stable content digest of the named semantic fields (all of
        :data:`SEMANTIC_FIELDS` when none are named).

        Stage keys chain subset fingerprints — e.g. the schedule stage
        keys on ``fingerprint("budget", "restarts", "seed")`` — so a
        changed budget invalidates scheduling but not the lowered
        prefix.  The digest is a SHA-256 over canonical JSON: equal
        options produce equal keys in any process on any machine.
        """
        names = names or SEMANTIC_FIELDS
        unknown = sorted(set(names) - set(SEMANTIC_FIELDS))
        if unknown:
            raise OptionsError(
                f"non-semantic field(s) in fingerprint: "
                f"{', '.join(unknown)} (semantic: "
                f"{', '.join(SEMANTIC_FIELDS)})")
        payload = {name: getattr(self, name) for name in sorted(names)}
        rendered = json.dumps(
            ["options", OPTIONS_FINGERPRINT_VERSION, payload],
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(rendered.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # The one CLI declaration of compile-related flags

    @staticmethod
    def add_to_parser(
        parser: argparse.ArgumentParser,
        include: Iterable[str] = ("opt", "budget", "cover", "mode",
                                  "repeat", "stop_after", "verify",
                                  "cache"),
    ) -> None:
        """Install the compile-option flags on an argparse parser.

        ``include`` names the flag groups a subcommand exposes (every
        group by default); names, types, defaults and help text come
        from this single declaration, so no subcommand can drift.
        Range validation happens in the argparse types — a bad value is
        a *usage* error (exit code 2), before any compilation starts.
        """
        groups = set(include)
        unknown = groups - set(_FLAG_GROUPS)
        if unknown:
            raise ValueError(
                f"unknown option flag group(s) {sorted(unknown)} "
                f"(known: {sorted(_FLAG_GROUPS)})")
        for name in _FLAG_GROUP_ORDER:
            if name in groups:
                _FLAG_GROUPS[name](parser)

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "CompileOptions":
        """Build options from a parsed CLI namespace.

        Reads whichever of the :meth:`add_to_parser` destinations the
        subcommand installed; absent groups take the library defaults
        — except the disk cache, which is only enabled for subcommands
        that declared the cache flags (``run`` compiles cold).
        """
        defaults = cls()
        return cls(
            opt=getattr(args, "opt", defaults.opt),
            budget=getattr(args, "budget", defaults.budget),
            cover=getattr(args, "cover", defaults.cover),
            mode=getattr(args, "mode", defaults.mode),
            repeat=getattr(args, "repeat", defaults.repeat),
            stop_after=getattr(args, "stop_after", None) or None,
            verify=getattr(args, "verify", defaults.verify),
            cache_dir=getattr(args, "cache_dir", None),
            disk_cache=not getattr(args, "no_disk_cache", True),
        )


def positive_int(text: str) -> int:
    """argparse type for flags whose values must be >= 1 (``--budget``,
    ``--repeat``): a violation is a usage error (exit code 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


_DEFAULTS = CompileOptions()


def _add_opt(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-O", "--opt", type=int, choices=list(OPT_LEVELS),
        default=_DEFAULTS.opt,
        help=f"machine-independent optimization level "
             f"(default {_DEFAULTS.opt})")


def _add_budget(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget", type=positive_int, default=_DEFAULTS.budget,
        metavar="N",
        help="time-loop cycle budget (>= 1; default: unconstrained)")


def _add_cover(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cover", default=_DEFAULTS.cover, choices=list(COVER_ALGORITHMS),
        help=f"edge-clique-cover algorithm (default {_DEFAULTS.cover})")


def _add_mode(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode", default=_DEFAULTS.mode, choices=list(MODES),
        help=f"program execution mode (default {_DEFAULTS.mode})")


def _add_repeat(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--repeat", type=positive_int, default=_DEFAULTS.repeat,
        metavar="N",
        help=f"repetition count for --mode repeat "
             f"(>= 1; default {_DEFAULTS.repeat})")


def _add_stop_after(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--stop-after", default=None, choices=list(_stage_names()),
        help="partial compilation: stop after this stage and print the "
             "per-stage fingerprints")


def _add_verify(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--verify", default=_DEFAULTS.verify, choices=list(VERIFY_LEVELS),
        help="stage-boundary verification: run the repro.analyze "
             "invariant checks after each stage (boundaries) and lint "
             "the encoded image too (strict); see docs/analysis.md "
             f"(default {_DEFAULTS.verify})")


def _add_cache_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=None, metavar="SPEC",
        help="persistent-cache backend spec: a directory (default "
             "$REPRO_CACHE_DIR or ~/.cache/repro) or memory:<name> "
             "for a process-shared in-memory backend")


def _add_cache(parser: argparse.ArgumentParser) -> None:
    _add_cache_dir(parser)
    parser.add_argument(
        "--no-disk-cache", action="store_true",
        help="do not read or write the persistent stage cache")


#: Flag group name -> installer; the order flags appear in ``--help``.
#: ``cache_dir`` is the backend-spec flag alone — what admin verbs
#: (``repro cache``) expose without the compile-facing ``--no-disk-cache``.
_FLAG_GROUP_ORDER = ("budget", "opt", "cover", "mode", "repeat",
                     "stop_after", "verify", "cache", "cache_dir")
_FLAG_GROUPS = {
    "opt": _add_opt,
    "budget": _add_budget,
    "cover": _add_cover,
    "mode": _add_mode,
    "repeat": _add_repeat,
    "stop_after": _add_stop_after,
    "verify": _add_verify,
    "cache": _add_cache,
    "cache_dir": _add_cache_dir,
}
