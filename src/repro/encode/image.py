"""Microcode image (de)serialization.

An :class:`~repro.encode.assembler.EncodedProgram` plus its core is the
complete deployable artifact of the flow — the program ROM contents of
figure 4 and the machine configuration the simulator (or silicon)
needs.  This module persists both as one JSON document, so a compiled
program can be archived, diffed and re-run without recompiling.
"""

from __future__ import annotations

import json
from typing import Any

from ..arch.serialize import core_from_dict, core_to_dict
from ..errors import EncodingError
from .assembler import EncodedProgram
from .fields import derive_format

IMAGE_FORMAT_VERSION = 1


def program_to_dict(program: EncodedProgram) -> dict[str, Any]:
    return {
        "image_format_version": IMAGE_FORMAT_VERSION,
        "core": core_to_dict(program.core),
        "words": [hex(word) for word in program.words],
        "word_width": program.word_width,
        "n_body": program.n_body,
        "body_offset": program.body_offset,
        "rom_words": list(program.rom_words),
        "acu_moduli": dict(program.acu_moduli),
        "input_map": [
            {"opu": opu, "cycle": cycle, "port": port}
            for (opu, cycle), port in sorted(program.input_map.items())
        ],
        "output_map": [
            {"opu": opu, "cycle": cycle, "port": port}
            for (opu, cycle), port in sorted(program.output_map.items())
        ],
        "initial_registers": {
            rf: [[register, value] for register, value in inits]
            for rf, inits in program.initial_registers.items()
        },
        "mode": program.mode,
        "repeat_count": program.repeat_count,
    }


def program_from_dict(data: dict[str, Any]) -> EncodedProgram:
    """Inverse of :func:`program_to_dict`.  A malformed image raises
    :class:`EncodingError` naming the field."""
    if not isinstance(data, dict):
        raise EncodingError("a microcode image must be a JSON object")
    version = data.get("image_format_version")
    if version != IMAGE_FORMAT_VERSION:
        raise EncodingError(
            f"unsupported microcode image version {version!r} "
            f"(this library reads version {IMAGE_FORMAT_VERSION})"
        )
    core = _read(data, "core", core_from_dict)
    fmt = derive_format(core)
    width = _read(data, "word_width", _int)
    if fmt.width != width:
        raise EncodingError(
            f"image word width {width} does not match the "
            f"core's derived format ({fmt.width} bits); core and image "
            f"disagree"
        )
    return EncodedProgram(core=core, format=fmt, **{
        name: _read(data, name, read) for name, read in _FIELDS.items()})


def _read(data: dict[str, Any], name: str, read) -> Any:
    """``read(data[name])``; a missing or malformed field raises
    :class:`EncodingError` naming it."""
    if name not in data:
        raise EncodingError(f"microcode image lacks the field {name!r}")
    try:
        return read(data[name])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise EncodingError(f"microcode image field {name!r} is "
                            f"malformed: {exc}") from None


def _typed(kind: type):
    def check(value: Any) -> Any:
        if not isinstance(value, kind) or isinstance(value, bool):
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return value
    return check


_int, _str, _list, _dict = map(_typed, (int, str, list, dict))


def _port_map(entries: Any) -> dict[tuple[str, int], str]:
    return {(_str(entry["opu"]), _int(entry["cycle"])): _str(entry["port"])
            for entry in _list(entries)}


#: Image field -> how it is read into the :class:`EncodedProgram` field.
_FIELDS = {
    "words": lambda words: [int(_str(word), 16) for word in _list(words)],
    "n_body": _int,
    "body_offset": _int,
    "rom_words": lambda words: [_int(word) for word in _list(words)],
    "acu_moduli": lambda moduli: {
        _str(acu): _int(modulus) for acu, modulus in _dict(moduli).items()},
    "input_map": _port_map,
    "output_map": _port_map,
    "initial_registers": lambda files: {
        rf: [(_int(register), _int(value))
             for register, value in _list(inits)]
        for rf, inits in _dict(files).items()},
    "mode": _str,
    "repeat_count": _int,
}


def dump_program(program: EncodedProgram) -> str:
    """Serialize a microcode image to a JSON string."""
    return json.dumps(program_to_dict(program), indent=2)


def load_program(text: str) -> EncodedProgram:
    """Load a microcode image from :func:`dump_program` output."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise EncodingError(f"a microcode image must be JSON: {exc}") from None
    return program_from_dict(data)
