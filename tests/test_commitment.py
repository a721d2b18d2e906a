"""Commit/reveal primitive: golden vectors, binding, hiding, encodings."""

import hashlib
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaccsc.commitment import (
    DIGEST_SIZE,
    NONCE_SIZE,
    Opening,
    ShotContent,
    commit,
    generate_nonce,
    verify_raw_opening,
)
from vaccsc.contract import _CONTENT


def test_golden_vectors_verify(vectors):
    for vec in vectors["commitment_vectors"]:
        nonce = bytes.fromhex(vec["nonce"])
        content = _CONTENT(vec["content"], "content")
        expected = bytes.fromhex(vec["commitment"])
        opening = Opening(content=content, nonce=nonce)
        assert commit(opening) == expected
        assert verify_raw_opening(expected, nonce, content.value)


def test_golden_vectors_reject_flips(vectors):
    for vec in vectors["commitment_vectors"]:
        nonce = bytes.fromhex(vec["nonce"])
        content = _CONTENT(vec["content"], "content")
        commitment = bytes.fromhex(vec["commitment"])
        other = ShotContent.PLACEBO if content is ShotContent.VACCINE else ShotContent.VACCINE
        assert not verify_raw_opening(commitment, nonce, other.value)
        flipped = bytes([nonce[0] ^ 0x01]) + nonce[1:]
        assert not verify_raw_opening(commitment, flipped, content.value)


def test_serialization_is_nonce_then_content():
    nonce = bytes(range(32))
    opening = Opening(content=ShotContent.VACCINE, nonce=nonce)
    raw = opening.serialize()
    assert len(raw) == NONCE_SIZE + 1
    assert raw[:NONCE_SIZE] == nonce
    assert raw[-1] == 0x01
    assert commit(opening) == hashlib.sha256(raw).digest()


def test_content_encoding():
    assert ShotContent.PLACEBO.value == 0x00
    assert ShotContent.VACCINE.value == 0x01


def test_nonce_sizes_enforced():
    with pytest.raises(ValueError):
        Opening(content=ShotContent.PLACEBO, nonce=b"short")


def test_verify_raw_opening_is_total():
    commitment = commit(Opening(content=ShotContent.PLACEBO, nonce=bytes(32)))
    assert not verify_raw_opening(commitment, b"", 0x00)
    assert not verify_raw_opening(commitment, bytes(31), 0x00)
    assert not verify_raw_opening(commitment, bytes(32), 0x05)
    assert not verify_raw_opening(commitment, bytes(32), -1)
    assert not verify_raw_opening(b"not a digest", bytes(32), 0x00)


def test_generate_nonce_seeded():
    a = generate_nonce(Random(99))
    b = generate_nonce(Random(99))
    assert a == b and len(a) == NONCE_SIZE


def test_determinism():
    opening = Opening(content=ShotContent.VACCINE, nonce=generate_nonce(Random(5)))
    assert commit(opening) == commit(opening)
    assert len(commit(opening)) == DIGEST_SIZE


def test_hiding_digest_carries_no_content_byte():
    # same nonce, both contents: digests unrelated to each other and to
    # the inputs in any byte position
    nonce = generate_nonce(Random(11))
    d0 = commit(Opening(content=ShotContent.PLACEBO, nonce=nonce))
    d1 = commit(Opening(content=ShotContent.VACCINE, nonce=nonce))
    assert d0 != d1
    assert nonce not in d0 and nonce not in d1


@given(content=st.sampled_from(list(ShotContent)), nonce=st.binary(min_size=32, max_size=32))
@settings(max_examples=200, deadline=None)
def test_roundtrip_property(content, nonce):
    opening = Opening(content=content, nonce=nonce)
    commitment = commit(opening)
    assert verify_raw_opening(commitment, nonce, content.value)
    other = ShotContent.PLACEBO if content is ShotContent.VACCINE else ShotContent.VACCINE
    assert not verify_raw_opening(commitment, nonce, other.value)


@given(
    content=st.sampled_from(list(ShotContent)),
    nonce=st.binary(min_size=32, max_size=32),
    flip_bit=st.integers(min_value=0, max_value=255),
)
@settings(max_examples=200, deadline=None)
def test_binding_under_nonce_mutation(content, nonce, flip_bit):
    commitment = commit(Opening(content=content, nonce=nonce))
    mutated = bytearray(nonce)
    mutated[flip_bit // 8] ^= 1 << (flip_bit % 8)
    assert not verify_raw_opening(commitment, bytes(mutated), content.value)
