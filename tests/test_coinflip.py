"""Two-party coin flip sessions: ordering, binding, XOR, abort, selection."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaccsc.coinflip import (
    U64_MAX,
    CoinFlipSession,
    Party,
    RandomContribution,
    SessionError,
    SessionPhase,
    commit_contribution,
    select_index,
)
from vaccsc.commitment import generate_nonce


def make_contribution(value: int, seed: int = 0) -> RandomContribution:
    return RandomContribution(value=value, nonce=generate_nonce(Random(seed)))


def run_session(r_a: int, r_b: int) -> CoinFlipSession:
    s = CoinFlipSession(deadline=10)
    ca = make_contribution(r_a, 1)
    cb = make_contribution(r_b, 2)
    s.add_commit(Party.A, commit_contribution(ca))
    s.add_commit(Party.B, commit_contribution(cb))
    s.add_reveal(Party.A, ca)
    s.add_reveal(Party.B, cb)
    return s


def test_contribution_golden_vectors(vectors):
    for vec in vectors["contribution_vectors"]:
        contribution = RandomContribution(
            value=int(vec["value"], 16), nonce=bytes.fromhex(vec["nonce"])
        )
        assert commit_contribution(contribution) == bytes.fromhex(vec["commitment"])


def test_xor_identities():
    assert run_session(0x0, U64_MAX).result == U64_MAX
    assert run_session(0xDEADBEEF, 0xDEADBEEF).result == 0
    assert run_session(0b1010, 0b0110).result == 0b1100


def test_phase_transitions():
    s = CoinFlipSession(deadline=10)
    assert s.phase is SessionPhase.AWAITING_COMMITS
    ca, cb = make_contribution(1, 1), make_contribution(2, 2)
    s.add_commit(Party.A, commit_contribution(ca))
    assert s.phase is SessionPhase.AWAITING_COMMITS
    s.add_commit(Party.B, commit_contribution(cb))
    assert s.phase is SessionPhase.AWAITING_REVEALS
    s.add_reveal(Party.A, ca)
    assert s.phase is SessionPhase.AWAITING_REVEALS
    assert s.result is None
    s.add_reveal(Party.B, cb)
    assert s.phase is SessionPhase.COMPLETE
    assert s.result == 1 ^ 2


def test_duplicate_commit_rejected():
    s = CoinFlipSession(deadline=10)
    ca = make_contribution(1, 1)
    s.add_commit(Party.A, commit_contribution(ca))
    with pytest.raises(SessionError) as exc:
        s.add_commit(Party.A, commit_contribution(ca))
    assert exc.value.code == "DuplicateCommit"


def test_no_reveal_before_both_commits():
    s = CoinFlipSession(deadline=10)
    ca = make_contribution(1, 1)
    s.add_commit(Party.A, commit_contribution(ca))
    with pytest.raises(SessionError) as exc:
        s.add_reveal(Party.A, ca)
    assert exc.value.code == "RevealBeforeCommits"
    assert s.result is None


def test_commit_after_reveal_phase_rejected():
    s = CoinFlipSession(deadline=10)
    ca, cb = make_contribution(1, 1), make_contribution(2, 2)
    s.add_commit(Party.A, commit_contribution(ca))
    s.add_commit(Party.B, commit_contribution(cb))
    with pytest.raises(SessionError) as exc:
        s.add_commit(Party.A, commit_contribution(ca))
    assert exc.value.code == "CommitPhaseOver"


def test_mismatched_reveal_rejected_session_recoverable():
    s = CoinFlipSession(deadline=10)
    ca, cb = make_contribution(1, 1), make_contribution(2, 2)
    s.add_commit(Party.A, commit_contribution(ca))
    s.add_commit(Party.B, commit_contribution(cb))
    liar = make_contribution(999, 1)
    with pytest.raises(SessionError) as exc:
        s.add_reveal(Party.A, liar)
    assert exc.value.code == "RevealMismatch"
    # honest reveal still goes through afterwards
    s.add_reveal(Party.A, ca)
    s.add_reveal(Party.B, cb)
    assert s.result == 1 ^ 2


def test_duplicate_reveal_rejected():
    s = CoinFlipSession(deadline=10)
    ca, cb = make_contribution(5, 1), make_contribution(6, 2)
    s.add_commit(Party.A, commit_contribution(ca))
    s.add_commit(Party.B, commit_contribution(cb))
    s.add_reveal(Party.A, ca)
    with pytest.raises(SessionError) as exc:
        s.add_reveal(Party.A, ca)
    assert exc.value.code == "DuplicateReveal"
    # once the session completed, further reveals fail on phase, not slot
    s.add_reveal(Party.B, cb)
    with pytest.raises(SessionError) as exc:
        s.add_reveal(Party.B, cb)
    assert exc.value.code == "RevealBeforeCommits"


def test_abort_rules():
    s = CoinFlipSession(deadline=10)
    ca = make_contribution(1, 1)
    s.add_commit(Party.A, commit_contribution(ca))
    with pytest.raises(SessionError) as exc:
        s.abort(now=10)  # at the deadline is still too early
    assert exc.value.code == "AbortBeforeDeadline"
    s.abort(now=11)
    assert s.phase is SessionPhase.ABORTED
    assert s.result is None


def test_abort_after_complete_rejected():
    s = run_session(1, 2)
    with pytest.raises(SessionError) as exc:
        s.abort(now=99)
    assert exc.value.code == "AbortAfterComplete"
    assert s.result == 3


def test_select_index_examples():
    assert select_index(7, 1) == 0
    assert select_index(10, 3) == 1
    with pytest.raises(ValueError):
        select_index(5, 0)


def _chi_square(counts: dict[int, int], total: int, cells: int) -> float:
    expected = total / cells
    return sum((counts.get(i, 0) - expected) ** 2 / expected for i in range(cells))


def test_uniformity_desk_scale():
    """Constant and commit-adaptive adversaries cannot bias the index."""
    from scipy.stats import chi2

    critical = chi2.ppf(0.99, 6)
    rng = Random(2024)
    for adversary in ("constant", "adaptive"):
        counts: dict[int, int] = {}
        draws = 14_000
        for _ in range(draws):
            honest = make_contribution(rng.getrandbits(64), rng.getrandbits(32))
            if adversary == "constant":
                adv_value = 0x1234567890ABCDEF
            else:
                # adversary picks after seeing the honest commitment digest
                adv_value = int.from_bytes(commit_contribution(honest)[:8], "big")
            adv = make_contribution(adv_value, rng.getrandbits(32))
            s = CoinFlipSession(deadline=1)
            s.add_commit(Party.A, commit_contribution(adv))
            s.add_commit(Party.B, commit_contribution(honest))
            s.add_reveal(Party.A, adv)
            s.add_reveal(Party.B, honest)
            index = select_index(s.result, 7)
            counts[index] = counts.get(index, 0) + 1
        stat = _chi_square(counts, draws, 7)
        assert stat < critical, f"{adversary}: chi2={stat:.2f} >= {critical:.2f}"


def test_contribution_validation():
    with pytest.raises(ValueError):
        RandomContribution(value=-1, nonce=bytes(32))
    with pytest.raises(ValueError):
        RandomContribution(value=U64_MAX + 1, nonce=bytes(32))
    with pytest.raises(ValueError):
        RandomContribution(value=0, nonce=bytes(8))


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["commit", "reveal"]), st.sampled_from(list(Party))),
        max_size=12,
    )
)
@settings(max_examples=200, deadline=None)
def test_ordering_safety(ops):
    """No interleaving yields a result before both parties committed."""
    s = CoinFlipSession(deadline=10)
    contributions = {
        Party.A: make_contribution(11, 1),
        Party.B: make_contribution(22, 2),
    }
    commits_seen = 0
    for op, party in ops:
        try:
            if op == "commit":
                s.add_commit(party, commit_contribution(contributions[party]))
                commits_seen += 1
            else:
                s.add_reveal(party, contributions[party])
        except SessionError:
            continue
        if s.result is not None:
            assert commits_seen == 2
    assert (s.result is not None) == (s.phase is SessionPhase.COMPLETE)
