"""The 'cbcs' pattern-encryption scheme (ISO/IEC 23001-7 §9.6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bmff.boxes import SencEntry, SubsampleRange
from repro.bmff.cenc import (
    CencDecryptError,
    CencSample,
    DEFAULT_CBCS_PATTERN,
    _apply_cbcs,
    decrypt_sample_cbcs,
    encrypt_sample_cbcs,
)
from repro.crypto.aes import AES
from repro.crypto.modes import cbc_encrypt, xor_bytes

_KEY = bytes(range(16))
_IV = bytes(reversed(range(16)))


class TestRoundTrip:
    @given(sample=st.binary(min_size=0, max_size=600))
    def test_full_sample(self, sample):
        enc = encrypt_sample_cbcs(sample, _KEY, _IV)
        assert decrypt_sample_cbcs(enc, _KEY) == sample

    @settings(max_examples=40)
    @given(
        sample=st.binary(min_size=40, max_size=600),
        clear=st.integers(min_value=0, max_value=40),
        crypt=st.integers(min_value=1, max_value=3),
        skip=st.integers(min_value=0, max_value=9),
    )
    def test_any_pattern(self, sample, clear, crypt, skip):
        enc = encrypt_sample_cbcs(
            sample, _KEY, _IV, clear_header=clear, pattern=(crypt, skip)
        )
        assert (
            decrypt_sample_cbcs(enc, _KEY, pattern=(crypt, skip)) == sample
        )

    def test_header_stays_clear(self):
        sample = bytes(range(200)) + bytes(56)
        enc = encrypt_sample_cbcs(sample, _KEY, _IV, clear_header=32)
        assert enc.data[:32] == sample[:32]


class TestPatternStructure:
    def test_1_9_pattern_leaves_skip_blocks_clear(self):
        # 10 blocks of recognizable plaintext: with a 1:9 pattern only
        # block 0 changes; blocks 1..9 pass through untouched.
        sample = b"".join(bytes([i]) * 16 for i in range(10))
        enc = encrypt_sample_cbcs(sample, _KEY, _IV, pattern=(1, 9))
        assert enc.data[:16] != sample[:16]
        assert enc.data[16:] == sample[16:]

    def test_first_crypt_block_is_plain_cbc(self):
        sample = bytes(160)
        enc = encrypt_sample_cbcs(sample, _KEY, _IV, pattern=(1, 9))
        expected = cbc_encrypt(_KEY, _IV, sample[:16], pad=False)
        assert enc.data[:16] == expected

    def test_partial_trailing_block_clear(self):
        sample = bytes(16) + b"tail-seven"
        enc = encrypt_sample_cbcs(sample, _KEY, _IV, pattern=(1, 0))
        assert enc.data[16:] == b"tail-seven"

    def test_sub_block_sample_entirely_clear(self):
        sample = b"short"
        enc = encrypt_sample_cbcs(sample, _KEY, _IV)
        assert enc.data == sample

    def test_iv_resets_per_subsample(self):
        # Two identical protected subsamples must produce identical
        # ciphertext (constant IV, reset at each subsample).
        block = bytes(range(16)) * 2
        entry = SencEntry(
            iv=_IV,
            subsamples=[SubsampleRange(0, 32), SubsampleRange(0, 32)],
        )
        from repro.bmff.cenc import _apply_cbcs

        out = _apply_cbcs(block + block, _KEY, entry, (1, 0), encrypt=True)
        assert out[:32] == out[32:]

    def test_bad_pattern_rejected(self):
        with pytest.raises(ValueError, match="bad cbcs pattern"):
            encrypt_sample_cbcs(bytes(32), _KEY, _IV, pattern=(0, 9))

    def test_bad_iv_rejected(self):
        with pytest.raises(ValueError, match="16 bytes"):
            encrypt_sample_cbcs(bytes(32), _KEY, bytes(8))

    def test_subsample_map_validated(self):
        entry = SencEntry(iv=_IV, subsamples=[SubsampleRange(1, 1)])
        with pytest.raises(CencDecryptError):
            decrypt_sample_cbcs(CencSample(data=bytes(64), entry=entry), _KEY)


class TestThroughTheStack:
    def test_cbcs_decode_via_mediacodec(self, world):
        """A cbcs-protected sample decodes through MediaDrm/MediaCodec
        with CryptoInfo.mode='cbcs'."""
        from repro.android.mediacodec import CryptoInfo, MediaCodec
        from repro.android.mediacrypto import MediaCrypto
        from repro.android.mediadrm import MediaDrm
        from repro.bmff.builder import read_pssh_boxes
        from repro.bmff.pssh import WIDEVINE_SYSTEM_ID
        from repro.media.codecs import generate_sample, sample_header_length

        device = world.l1_device(serial="P6-CBCS")
        drm = MediaDrm(WIDEVINE_SYSTEM_ID, device, origin="com.cbcs.app")
        client = device.new_http_client()
        request = drm.get_provision_request()
        response = client.post(
            f"https://{world.provisioning.hostname}/provision", request.data
        )
        drm.provide_provision_response(response.body)

        packaged = world.packaged
        init_url, _ = packaged.asset_urls["v540"]
        (pssh,) = read_pssh_boxes(client.get(init_url).body)
        session = drm.open_session()
        key_request = drm.get_key_request(session, pssh.data)
        license_response = client.post(
            f"https://{world.license_server.hostname}/license", key_request.data
        )
        drm.provide_key_response(session, license_response.body)

        # Encrypt a fresh sample under cbcs with the v540 content key.
        kid = packaged.kid_by_rep["v540"]
        key = packaged.content_keys[kid]
        clear = generate_sample("video", "cbcs/v", 0, 120)
        enc = encrypt_sample_cbcs(
            clear, key, _IV, clear_header=sample_header_length()
        )

        crypto = MediaCrypto(drm, session)
        codec = MediaCodec.create_decoder("video/mp4", secure=True)
        codec.configure(crypto)
        frame = codec.queue_secure_input_buffer(
            enc.data,
            CryptoInfo(
                key_id=kid,
                iv=enc.entry.iv,
                subsamples=tuple(
                    (s.clear_bytes, s.protected_bytes)
                    for s in enc.entry.subsamples
                ),
                mode="cbcs",
            ),
        )
        assert frame.valid

    def test_unknown_mode_rejected(self, world):
        from repro.android.mediadrm import MediaDrm
        from repro.bmff.pssh import WIDEVINE_SYSTEM_ID
        from repro.widevine.cdm import CdmError

        device = world.l1_device(serial="P6-MODE")
        drm = MediaDrm(WIDEVINE_SYSTEM_ID, device)
        session = drm.open_session()
        with pytest.raises(CdmError, match="unsupported protection scheme"):
            drm._cdm.decrypt(session, bytes(16), bytes(16), bytes(16), [], mode="cbc1")


# -- the batched decryptor against a one-block-at-a-time reference -------


def _reference_range(data, key, iv, pattern, *, encrypt):
    """cbcs over one protected range, one T-table block at a time."""
    cipher = AES(key)
    crypt_blocks, skip_blocks = pattern
    out = bytearray()
    previous = iv
    offset = 0
    while offset + 16 <= len(data):
        for _ in range(crypt_blocks):
            if offset + 16 > len(data):
                break
            chunk = data[offset : offset + 16]
            if encrypt:
                block = cipher.encrypt_block(xor_bytes(chunk, previous))
                previous = block
            else:
                block = xor_bytes(cipher.decrypt_block(chunk), previous)
                previous = chunk
            out += block
            offset += 16
        skip = min(skip_blocks * 16, len(data) - offset)
        out += data[offset : offset + skip]
        offset += skip
    return bytes(out + data[offset:])


def _reference_sample(data, key, entry, pattern, *, encrypt):
    if not entry.subsamples:
        return _reference_range(data, key, entry.iv, pattern, encrypt=encrypt)
    out = bytearray()
    offset = 0
    for sub in entry.subsamples:
        out += data[offset : offset + sub.clear_bytes]
        offset += sub.clear_bytes
        out += _reference_range(
            data[offset : offset + sub.protected_bytes],
            key,
            entry.iv,
            pattern,
            encrypt=encrypt,
        )
        offset += sub.protected_bytes
    return bytes(out)


_subsample_maps = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 200)), min_size=1, max_size=4
)


class TestAgainstPerBlockReference:
    @settings(max_examples=60)
    @given(
        ranges=_subsample_maps,
        crypt=st.integers(min_value=1, max_value=3),
        skip=st.integers(min_value=0, max_value=9),
        key=st.sampled_from([_KEY, bytes(range(32, 56)), bytes(range(64, 96))]),
        fill=st.integers(0, 255),
    )
    def test_several_subsamples(self, ranges, crypt, skip, key, fill):
        # Several subsamples, protected sizes that leave partial
        # trailing blocks, and skip 0 (every block in one chain).
        entry = SencEntry(
            iv=_IV, subsamples=[SubsampleRange(c, p) for c, p in ranges]
        )
        size = sum(c + p for c, p in ranges)
        sample = bytes((fill + 7 * i) % 256 for i in range(size))
        pattern = (crypt, skip)
        enc = _apply_cbcs(sample, key, entry, pattern, encrypt=True)
        assert enc == _reference_sample(sample, key, entry, pattern, encrypt=True)
        dec = decrypt_sample_cbcs(CencSample(enc, entry), key, pattern=pattern)
        assert dec == sample
        assert dec == _reference_sample(enc, key, entry, pattern, encrypt=False)

    @pytest.mark.parametrize("size", [0, 5, 16, 17, 31, 32, 33, 160, 161, 175])
    @pytest.mark.parametrize("pattern", [(1, 9), (1, 0), (2, 0), (3, 1), (5, 2)])
    def test_whole_sample_sizes(self, size, pattern):
        sample = bytes(i % 251 for i in range(size))
        enc = encrypt_sample_cbcs(sample, _KEY, _IV, pattern=pattern)
        assert enc.data == _reference_range(sample, _KEY, _IV, pattern, encrypt=True)
        assert decrypt_sample_cbcs(enc, _KEY, pattern=pattern) == sample

    def test_skip_zero_is_plain_cbc_over_whole_blocks(self):
        sample = bytes(range(200))
        enc = encrypt_sample_cbcs(sample, _KEY, _IV, pattern=(1, 0))
        assert enc.data[:192] == cbc_encrypt(_KEY, _IV, sample[:192], pad=False)
        assert enc.data[192:] == sample[192:]
