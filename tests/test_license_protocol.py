"""Protocol messages: serialization round trips and malformed input."""

import hashlib
import json

import pytest

from repro.license_server.protocol import (
    KeyControl,
    LicenseRequest,
    LicenseResponse,
    ProtocolError,
    ProvisionRequest,
    ProvisionResponse,
    WrappedKey,
    canonical_bytes,
)
from repro.license_server import protocol


def _provision_request() -> ProvisionRequest:
    return ProvisionRequest(
        device_id=bytes(32),
        nonce=bytes(16),
        cdm_version="3.1.0",
        security_level="L3",
        mac=bytes(32),
    )


def _license_request() -> LicenseRequest:
    return LicenseRequest(
        session_id=b"\x00\x00\x00\x01",
        device_id=bytes(32),
        rsa_fingerprint=bytes(32),
        pssh_data=b"pssh",
        nonce=bytes(16),
        cdm_version="15.0.0",
        security_level="L1",
        device_model="Pixel 6",
        signature=bytes(256),
    )


def _license_response() -> LicenseResponse:
    return LicenseResponse(
        session_id=b"\x00\x00\x00\x01",
        wrapped_session_key=bytes(256),
        derivation_context=b"context",
        keys=[
            WrappedKey(
                key_id=bytes(16),
                iv=bytes(16),
                wrapped_key=bytes(32),
                control=KeyControl(max_height=540, require_security_level=None),
            ),
            WrappedKey(
                key_id=bytes([1]) * 16,
                iv=bytes(16),
                wrapped_key=bytes(32),
                control=KeyControl(max_height=1080, require_security_level="L1"),
            ),
        ],
        mac=bytes(32),
    )


def _golden_messages():
    """One fixed instance of each message, every field distinct, so a
    renamed, dropped or swapped field changes the pinned digests."""
    return {
        "provision_request": ProvisionRequest(
            device_id=bytes(range(32)),
            nonce=bytes(range(100, 116)),
            cdm_version="15.0.0",
            security_level="L1",
            mac=bytes(range(200, 232)),
        ),
        "provision_response": ProvisionResponse(
            device_id=bytes(range(32)),
            iv=bytes(range(32, 48)),
            wrapped_rsa_key=bytes(range(48, 112)),
            mac=bytes(range(112, 144)),
        ),
        "license_request": LicenseRequest(
            session_id=b"\x00\x00\x00\x2a",
            device_id=bytes(range(32)),
            rsa_fingerprint=bytes(range(32, 64)),
            pssh_data=b"\x12\x10" + bytes(range(64, 80)),
            nonce=bytes(range(80, 96)),
            cdm_version="3.1.0",
            security_level="L3",
            device_model="Nexus 5",
            signature=bytes(range(256)),
        ),
        "license": LicenseResponse(
            session_id=b"\x00\x00\x00\x2a",
            wrapped_session_key=bytes(range(255, -1, -1)),
            derivation_context=b"ctx",
            keys=[
                WrappedKey(
                    key_id=bytes(range(16)),
                    iv=bytes(range(16, 32)),
                    wrapped_key=bytes(range(32, 64)),
                    control=KeyControl(max_height=540, license_duration_s=3600),
                ),
                WrappedKey(
                    key_id=bytes(range(64, 80)),
                    iv=bytes(range(80, 96)),
                    wrapped_key=bytes(range(96, 128)),
                    control=KeyControl(
                        max_height=1080, require_security_level="L1"
                    ),
                ),
            ],
            mac=bytes(range(128, 160)),
        ),
    }


# sha256 of (serialize(), signing_payload()) per message. The signatures,
# MACs and KDF contexts of every exchange are computed over these bytes,
# so any change to the wire encoding shows here first.
_GOLDEN_DIGESTS = {
    "provision_request": (
        "898a23748e16c7741dbb183f13c1511e3dbe7409c324547f50390613f9153d5d",
        "62d0dc314ca7589abbadba66ba66b3aa7dbe1285ac4e0d0e7a10e6a75f7d4d4f",
    ),
    "provision_response": (
        "942fa00b78c92a027d227a36b38f2cebfeb9ad0b069ac972c99c42fbde759f8c",
        "90d6a2af7c64bea9900110b8a82f1a150d847a0b2c07c36185e246f0b5a8f242",
    ),
    "license_request": (
        "1274670d554f2c0ad4aeb3b6be85332600503b2526ccd6b6fe03af20310ec53e",
        "40aa38a09d0e1e77aab5f90ad6ba83c7d2e81e31f839533fdc2affbb30e08761",
    ),
    "license": (
        "c3ecb71dd4d791fd2fe8a35dd4d8f40c7289a4c86c23c0e5951213a8aa6f74ff",
        "abea9ac643ca66ff2a0b2f4dcd9e9b99f0b7a2766a2d790d5567cd34a582b5df",
    ),
}


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(_GOLDEN_DIGESTS))
    def test_serialize_and_signing_payload_are_pinned(self, name):
        message = _golden_messages()[name]
        assert (
            hashlib.sha256(message.serialize()).hexdigest(),
            hashlib.sha256(message.signing_payload()).hexdigest(),
        ) == _GOLDEN_DIGESTS[name]


class TestRoundTrips:
    def test_provision_request(self):
        parsed = ProvisionRequest.parse(_provision_request().serialize())
        assert parsed == _provision_request()

    def test_provision_response(self):
        original = ProvisionResponse(
            device_id=bytes(32),
            iv=bytes(16),
            wrapped_rsa_key=bytes(64),
            mac=bytes(32),
        )
        assert ProvisionResponse.parse(original.serialize()) == original

    def test_license_request(self):
        assert LicenseRequest.parse(_license_request().serialize()) == _license_request()

    def test_license_response(self):
        parsed = LicenseResponse.parse(_license_response().serialize())
        assert parsed.session_id == b"\x00\x00\x00\x01"
        assert len(parsed.keys) == 2
        assert parsed.keys[1].control.require_security_level == "L1"
        assert parsed.keys[0].control.max_height == 540

    def test_signing_payload_excludes_mac(self):
        request = _provision_request()
        payload = json.loads(request.signing_payload())
        assert "mac" not in payload
        full = json.loads(request.serialize())
        assert "mac" in full

    def test_signing_payload_excludes_signature(self):
        payload = json.loads(_license_request().signing_payload())
        assert "signature" not in payload

    def test_signing_payload_stable_under_mac_change(self):
        request = _provision_request()
        before = request.signing_payload()
        request.mac = bytes([1]) * 32
        assert request.signing_payload() == before


class TestMalformed:
    def test_not_json(self):
        with pytest.raises(ProtocolError, match="not a protocol message"):
            ProvisionRequest.parse(b"\xff\xfe binary")

    def test_wrong_type(self):
        blob = _provision_request().serialize()
        with pytest.raises(ProtocolError, match="expected message type"):
            LicenseRequest.parse(blob)

    def test_json_array_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            ProvisionRequest.parse(b"[1,2,3]")

    def test_missing_field(self):
        payload = json.loads(_provision_request().serialize())
        del payload["nonce"]
        with pytest.raises(ProtocolError, match="missing field 'nonce'"):
            ProvisionRequest.parse(json.dumps(payload).encode())

    def test_bad_hex_field(self):
        payload = json.loads(_provision_request().serialize())
        payload["device_id"] = "zz"
        with pytest.raises(ProtocolError, match="not valid hex"):
            ProvisionRequest.parse(json.dumps(payload).encode())

    def test_canonical_bytes_sorted(self):
        a = canonical_bytes({"b": 1, "a": 2})
        b = canonical_bytes({"a": 2, "b": 1})
        assert a == b


# Per wire field, values of every JSON type the field does not accept.
_NOT_HEX = [5, 1.5, True, None, [], {}]
_NOT_STR = [5, True, None, ["L1"], {}]
_WRONG_TYPES = {
    "provision_request": {
        "device_id": _NOT_HEX, "nonce": _NOT_HEX, "mac": _NOT_HEX,
        "cdm_version": _NOT_STR, "security_level": _NOT_STR,
    },
    "provision_response": {
        "device_id": _NOT_HEX, "iv": _NOT_HEX,
        "wrapped_rsa_key": _NOT_HEX, "mac": _NOT_HEX,
    },
    "license_request": {
        "session_id": _NOT_HEX, "device_id": _NOT_HEX,
        "rsa_fingerprint": _NOT_HEX, "pssh_data": _NOT_HEX,
        "nonce": _NOT_HEX, "signature": _NOT_HEX,
        "cdm_version": _NOT_STR, "security_level": _NOT_STR,
        "device_model": _NOT_STR,
    },
    "license": {
        "session_id": _NOT_HEX, "wrapped_session_key": _NOT_HEX,
        "derivation_context": _NOT_HEX, "mac": _NOT_HEX,
        "keys": [5, "keys", None, {}, True],
        "keys.0": [7, "key", None, [], True],
        "keys.0.key_id": _NOT_HEX, "keys.0.iv": _NOT_HEX,
        "keys.0.wrapped_key": _NOT_HEX,
        "keys.0.control": [7, "control", None, [], True],
        "keys.0.control.max_height": ["540", 540.5, True, [], {}],
        "keys.0.control.license_duration_s": ["60", 1.5, False, [], {}],
        "keys.0.control.require_security_level": [1, True, [], {}],
    },
}


def _set_path(payload, path, value):
    *parents, last = path.split(".")
    for step in parents:
        payload = payload[int(step)] if isinstance(payload, list) else payload[step]
    if isinstance(payload, list):
        payload[int(last)] = value
    else:
        payload[last] = value


class TestTypeConfusion:
    """A field holding a value of the wrong JSON type is a ProtocolError
    naming that field, never a TypeError or AttributeError."""

    @pytest.mark.parametrize(
        "name,path,value",
        [
            (name, path, value)
            for name, fields in sorted(_WRONG_TYPES.items())
            for path, values in fields.items()
            for value in values
        ],
    )
    def test_wrong_json_type_is_a_protocol_error(self, name, path, value):
        message = _golden_messages()[name]
        payload = json.loads(message.serialize())
        _set_path(payload, path, value)
        field_name = path.split(".")[-1]
        if field_name.isdigit():
            field_name = path.split(".")[-2]
        with pytest.raises(ProtocolError, match=repr(field_name)):
            type(message).parse(json.dumps(payload).encode())

    def test_every_message_field_is_covered(self):
        for name, message in _golden_messages().items():
            top = {path.split(".")[0] for path in _WRONG_TYPES[name]}
            assert top == set(protocol.encode(message))

    def test_control_and_its_fields_are_optional(self):
        payload = json.loads(_golden_messages()["license"].serialize())
        del payload["keys"][0]["control"]
        del payload["keys"][1]["control"]["max_height"]
        parsed = LicenseResponse.parse(json.dumps(payload).encode())
        assert parsed.keys[0].control == KeyControl()
        assert parsed.keys[1].control == KeyControl(require_security_level="L1")

    @pytest.mark.parametrize("name", sorted(_GOLDEN_DIGESTS))
    def test_every_message_field_is_required(self, name):
        message = _golden_messages()[name]
        for field_name in protocol.encode(message):
            payload = json.loads(message.serialize())
            del payload[field_name]
            with pytest.raises(ProtocolError, match=f"missing field {field_name!r}"):
                type(message).parse(json.dumps(payload).encode())

    def test_deeply_nested_input_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="not a protocol message"):
            LicenseResponse.parse(b"[" * 100_000)


class TestKeyControl:
    def test_round_trip(self):
        control = KeyControl(
            max_height=720, require_security_level="L1", license_duration_s=3600
        )
        assert protocol.decode(KeyControl, protocol.encode(control)) == control

    def test_defaults(self):
        control = protocol.decode(KeyControl, {})
        assert control.max_height is None
        assert control.require_security_level is None
        assert control.license_duration_s is None


from hypothesis import given
from hypothesis import strategies as st

_bytes16 = st.binary(min_size=16, max_size=16)
_bytes32 = st.binary(min_size=32, max_size=32)


class TestPropertyRoundTrips:
    @given(
        device_id=_bytes32,
        nonce=_bytes16,
        mac=_bytes32,
        version=st.from_regex(r"[0-9]{1,2}\.[0-9]\.[0-9]", fullmatch=True),
    )
    def test_provision_request_any_fields(self, device_id, nonce, mac, version):
        original = ProvisionRequest(
            device_id=device_id,
            nonce=nonce,
            cdm_version=version,
            security_level="L3",
            mac=mac,
        )
        assert ProvisionRequest.parse(original.serialize()) == original

    @given(
        session_id=st.binary(min_size=4, max_size=4),
        pssh=st.binary(max_size=64),
        signature=st.binary(max_size=256),
        model=st.text(
            alphabet=st.characters(
                whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=127
            ),
            max_size=20,
        ),
    )
    def test_license_request_any_fields(self, session_id, pssh, signature, model):
        original = LicenseRequest(
            session_id=session_id,
            device_id=bytes(32),
            rsa_fingerprint=bytes(32),
            pssh_data=pssh,
            nonce=bytes(16),
            cdm_version="15.0.0",
            security_level="L1",
            device_model=model,
            signature=signature,
        )
        assert LicenseRequest.parse(original.serialize()) == original

    @given(
        kids=st.lists(_bytes16, min_size=0, max_size=4),
        duration=st.one_of(st.none(), st.integers(min_value=0, max_value=10**6)),
    )
    def test_license_response_any_keys(self, kids, duration):
        original = LicenseResponse(
            session_id=bytes(4),
            wrapped_session_key=bytes(128),
            derivation_context=b"ctx",
            keys=[
                WrappedKey(
                    key_id=kid,
                    iv=bytes(16),
                    wrapped_key=bytes(32),
                    control=KeyControl(license_duration_s=duration),
                )
                for kid in kids
            ],
            mac=bytes(32),
        )
        parsed = LicenseResponse.parse(original.serialize())
        assert parsed == original


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)


class TestPropertyTypeConfusion:
    @given(
        name=st.sampled_from(sorted(_WRONG_TYPES)),
        pick=st.integers(min_value=0),
        value=_json_values,
    )
    def test_any_json_value_in_any_field_parses_or_is_a_protocol_error(
        self, name, pick, value
    ):
        message = _golden_messages()[name]
        paths = sorted(_WRONG_TYPES[name])
        payload = json.loads(message.serialize())
        _set_path(payload, paths[pick % len(paths)], value)
        try:
            type(message).parse(json.dumps(payload).encode())
        except ProtocolError:
            pass
