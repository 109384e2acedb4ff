"""The trusted-API signature pins move only because the signed bytes moved.

``tests/unit/test_trusted.py::TestTrustedApiPin`` pins the signature prefix
of every attestation a fixed call sequence produces.  Wire v3 re-pinned
them.  This script re-runs both pinned sequences with statements and
payload digests encoded by the v2 canonical encoder (the copy in
``refresh_proof.py``, which shares no code with ``src/``) and checks that
the pins committed before wire v3 come back, then that the current code
gives the current pins.

Run it from the repository root with ``PYTHONPATH=src``; it exits 1
unless both hold.
"""

import hashlib
import importlib
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[2] / "tests" / "unit"))

import test_trusted  # noqa: E402

#: the pins as committed before wire v3.
V2_PINS = {
    "test_append_with_and_without_value_then_rollback": [
        (0, 1, "a", "26014e81af8c8c86"), (0, 5, "b", "000165498e3dfec3"),
        (1, 1, "c", "ecbd56b263a0b7eb"), (0, 6, "d", "7c5d7c10fed69504"),
        (0, 6, "e", "70c4ab856c237664")],
    "test_create_and_append_f_then_rollback": [
        (0, 0, None, "2bb55c119b72e3e1"), (0, 1, "x", "e7448c002bcb633e"),
        (1, 10, None, "3900afeb695d8df7"), (1, 11, "y", "353eb0ce9722e07d"),
        (1, 3, None, "5217ff5a87ccb167"), (1, 4, "z", "a00e4ee221766725")],
}


def pins(name):
    """The tuples one pinned sequence produces, with its own assertion
    replaced by capturing them."""
    captured = []
    original = test_trusted.TestTrustedApiPin._pin

    def capture(attestation, label):
        captured.append(original(attestation, label))
        return captured[-1]

    test_trusted.TestTrustedApiPin._pin = staticmethod(capture)
    try:
        getattr(test_trusted.TestTrustedApiPin(), name)()
    except AssertionError:
        pass
    finally:
        test_trusted.TestTrustedApiPin._pin = staticmethod(original)
    return captured


def current():
    return {name: pins(name) for name in V2_PINS}


def with_v2_encoding():
    source = (HERE / "refresh_proof.py").read_text().split("ok = True")[0]
    namespace = {}
    exec(source, namespace)

    def v2(value, use_cache=True):
        return bytes(namespace["v2"](value, bytearray()))

    def v2_digest(value, use_cache=True):
        return hashlib.sha256(v2(value)).digest()

    patched = [(importlib.import_module("repro.crypto.signatures"),
                "canonical_bytes", v2),
               (importlib.import_module("repro.trusted.attestation"),
                "canonical_bytes", v2),
               (test_trusted, "digest", v2_digest)]
    saved = [(module, name, getattr(module, name))
             for module, name, _ in patched]
    for module, name, value in patched:
        setattr(module, name, value)
    try:
        return current()
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


v2_pins = with_v2_encoding()
v3_pins = current()
ok = True
for name in V2_PINS:
    back = v2_pins[name] == V2_PINS[name]
    moved = [new for new, old in zip(v3_pins[name], V2_PINS[name])
             if new[3] != old[3]]
    ok = ok and back and len(moved) == len(V2_PINS[name])
    print(f"{name}: v2-encoded statements give the pre-v3 pins: {back}; "
          f"every v3 prefix differs: {len(moved) == len(V2_PINS[name])}")
    for new in v3_pins[name]:
        print(f"  v3 {new}")
sys.exit(0 if ok else 1)
