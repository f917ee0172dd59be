"""The one serialized form of a :class:`SimulationResult`: checked JSON.

Every place a result leaves its process and comes back — the persistent
cache (:mod:`repro.runtime.cache`) and result shipping between claim
workers and the claim server (:mod:`repro.campaign.remote`) — uses
:func:`result_to_json` / :func:`result_from_json`.  The encoded form is
a plain JSON value, so decoding builds data and never runs code.

Encoding:

* ``SimStats`` field by field: integer counters as they are,
  ``ndc.performed`` keyed by :class:`~repro.config.NdcLocation` name,
  ``arrival_records`` as ``[pc, location, window, breakeven, met]``
  rows, ``window_series`` / ``pc_stats`` keys as decimal strings and
  ``resource_util`` values as 3-lists;
* the config as :func:`~repro.runtime.keys.canonical`, rebuilt along
  the type hints of the :mod:`repro.config` dataclasses, so a type name
  other than the one a field declares is a decode error;
* dict insertion order is kept, so ``repr`` survives a round trip
  (perfbench's result digest hashes ``repr(result.stats)``).

Decoding is strict: a missing, extra or wrongly typed field, an unknown
enum or type name, and counters that break :meth:`SimStats.check`
all raise :class:`CodecError`.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import typing
from enum import Enum, Flag
from typing import Callable, Dict, List

from repro.arch.simulator import SimulationResult
from repro.arch.stats import ArrivalRecord, NdcEventCounts, SimStats
from repro.config import ArchConfig, NdcLocation
from repro.runtime.keys import canonical


class CodecError(ValueError):
    """The value is not the JSON form of a valid SimulationResult."""


_RESULT_KEYS = frozenset(("scheme", "stats", "config", "pc_stats"))


def _int_fields(cls) -> List[str]:
    return [f.name for f in dataclasses.fields(cls) if f.type in (int, "int")]


_STATS_INTS = _int_fields(SimStats)
_NDC_INTS = _int_fields(NdcEventCounts)
_STATS_KEYS = frozenset(f.name for f in dataclasses.fields(SimStats))
_NDC_KEYS = frozenset(f.name for f in dataclasses.fields(NdcEventCounts))
_LOCATIONS = dict(NdcLocation.__members__)


# ----------------------------------------------------------------------
# encode
# ----------------------------------------------------------------------
def result_to_json(result: SimulationResult) -> dict:
    """The JSON value of ``result`` (dicts keep their order)."""
    pc_stats = result.pc_stats
    return {
        "scheme": result.scheme,
        "stats": _stats_to_json(result.stats),
        "config": canonical(result.config),
        "pc_stats": None if pc_stats is None else {
            str(pc): list(counts) for pc, counts in pc_stats.items()
        },
    }


def _stats_to_json(s: SimStats) -> dict:
    n = s.ndc
    out = {name: getattr(s, name) for name in _STATS_INTS}
    out.update(
        per_core_cycles=list(s.per_core_cycles),
        ndc={
            "performed": {loc.name: c for loc, c in n.performed.items()},
            **{name: getattr(n, name) for name in _NDC_INTS},
        },
        arrival_records=[
            [r.pc, r.location.name, r.window, r.breakeven, r.met]
            for r in s.arrival_records
        ],
        window_series={
            str(pc): list(ws) for pc, ws in s.window_series.items()
        },
        resource_util={
            name: list(util) for name, util in s.resource_util.items()
        },
    )
    return out


# ----------------------------------------------------------------------
# decode
# ----------------------------------------------------------------------
def result_from_json(obj) -> SimulationResult:
    """Rebuild a result from :func:`result_to_json`'s value; raises
    :class:`CodecError` on anything else."""
    o = _object(obj, "result", _RESULT_KEYS)
    scheme = o["scheme"]
    if type(scheme) is not str:
        raise CodecError(f"result.scheme: expected a string, got {scheme!r}")
    stats = _stats_from_json(o["stats"])
    try:
        stats.check()
    except ValueError as exc:
        raise CodecError(str(exc)) from exc
    pc = o["pc_stats"]
    return SimulationResult(
        scheme=scheme,
        stats=stats,
        config=_from_canonical(o["config"], ArchConfig, "config"),
        pc_stats=None if pc is None else _int_keyed(
            pc, "pc_stats", lambda v, at: _ints(v, at, length=4)
        ),
    )


def _stats_from_json(obj) -> SimStats:
    o = _object(obj, "stats", _STATS_KEYS)
    nd = _object(o["ndc"], "stats.ndc", _NDC_KEYS)
    ndc = NdcEventCounts(
        performed={
            _location(k, "stats.ndc.performed"):
                _int(v, f"stats.ndc.performed.{k}")
            for k, v in _object(nd["performed"],
                                "stats.ndc.performed").items()
        },
        **{k: _int(nd[k], f"stats.ndc.{k}") for k in _NDC_INTS},
    )
    return SimStats(
        per_core_cycles=_ints(o["per_core_cycles"], "stats.per_core_cycles"),
        ndc=ndc,
        arrival_records=[
            _record(row, i) for i, row in enumerate(
                _list(o["arrival_records"], "stats.arrival_records")
            )
        ],
        window_series=_int_keyed(o["window_series"], "stats.window_series",
                                 _ints),
        resource_util={
            name: tuple(_ints(v, f"stats.resource_util.{name}", length=3))
            for name, v in _object(o["resource_util"],
                                   "stats.resource_util").items()
        },
        **{k: _int(o[k], f"stats.{k}") for k in _STATS_INTS},
    )


def _record(row, i: int) -> ArrivalRecord:
    if (type(row) is list and len(row) == 5
            and type(row[0]) is int and type(row[1]) is str
            and row[1] in _LOCATIONS
            and type(row[2]) is int and type(row[3]) is int
            and type(row[4]) is bool):
        pc, loc, window, breakeven, met = row
        return ArrivalRecord(pc, _LOCATIONS[loc], window, breakeven, met)
    raise CodecError(
        f"stats.arrival_records[{i}]: expected [pc, location name, "
        f"window, breakeven, met], got {row!r}"
    )


def _object(obj, at: str, keys=None) -> dict:
    """``obj`` as a JSON object, with exactly ``keys`` when given."""
    if not isinstance(obj, dict):
        raise CodecError(
            f"{at}: expected an object, got {type(obj).__name__}"
        )
    if keys is not None and obj.keys() != keys:
        raise CodecError(
            f"{at}: missing {sorted(keys - obj.keys())}, "
            f"unexpected {sorted(obj.keys() - keys)}"
        )
    return obj


def _list(obj, at: str, *, length=None) -> list:
    if not isinstance(obj, list):
        raise CodecError(f"{at}: expected a list, got {type(obj).__name__}")
    if length is not None and len(obj) != length:
        raise CodecError(f"{at}: expected {length} items, got {len(obj)}")
    return obj


def _int(v, at: str) -> int:
    if type(v) is not int:
        raise CodecError(f"{at}: expected an integer, got {v!r}")
    return v


def _ints(obj, at: str, *, length=None) -> List[int]:
    items = _list(obj, at, length=length)
    if not all(type(v) is int for v in items):
        raise CodecError(f"{at}: expected integers, got {items!r}")
    return items


def _int_keyed(obj, at: str, value: Callable) -> Dict[int, object]:
    """A dict whose keys are decimal strings of ints."""
    out = {}
    for k, v in _object(obj, at).items():
        try:
            pc = int(k)
        except ValueError:
            pc = None
        if pc is None or str(pc) != k:
            raise CodecError(f"{at}: key {k!r} is not a decimal integer")
        out[pc] = value(v, f"{at}.{k}")
    return out


def _location(name, at: str) -> NdcLocation:
    if type(name) is not str or name not in _LOCATIONS:
        raise CodecError(f"{at}: unknown NdcLocation name {name!r}")
    return _LOCATIONS[name]


# ----------------------------------------------------------------------
# the config: canonical form back to repro.config dataclasses
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _field_types(cls) -> Dict[str, object]:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _from_canonical(node, hint, at: str):
    """Rebuild the value of type ``hint`` that :func:`canonical` wrote
    as ``node``; the hint, not the node, picks the class."""
    if isinstance(hint, type) and issubclass(hint, Enum):
        tag, name, value = _list(node, at, length=3)
        if tag != "enum" or name != hint.__name__:
            raise CodecError(f"{at}: expected enum {hint.__name__}")
        _int(value, at)
        if issubclass(hint, Flag):
            valid = not value & ~functools.reduce(
                operator.or_, (m.value for m in hint), 0)
        else:
            valid = value in hint._value2member_map_
        if not valid:
            raise CodecError(f"{at}: {value} is not a valid {hint.__name__}")
        return hint(value)
    if dataclasses.is_dataclass(hint):
        tag, name, body = _list(node, at, length=3)
        if tag != "dc" or name != hint.__name__:
            raise CodecError(
                f"{at}: expected {hint.__name__}, got type {name!r}"
            )
        types = _field_types(hint)
        _object(body, at, types.keys())
        try:
            return hint(**{
                k: _from_canonical(v, types[k], f"{at}.{k}")
                for k, v in body.items()
            })
        except CodecError:
            raise
        except ValueError as exc:  # a dataclass's own validation
            raise CodecError(f"{at}: {exc}") from exc
    if typing.get_origin(hint) is tuple:
        item, ellipsis = typing.get_args(hint)
        assert ellipsis is Ellipsis, f"unsupported config type {hint}"
        return tuple(
            _from_canonical(v, item, f"{at}[{i}]")
            for i, v in enumerate(_list(node, at))
        )
    if hint in (int, str, bool):
        if type(node) is not hint:
            raise CodecError(
                f"{at}: expected {hint.__name__}, got {node!r}"
            )
        return node
    raise TypeError(f"no canonical decoding for config type {hint!r}")
