"""Commitment-backed double-blind vaccine trial protocol on a simulated ledger.

The pieces: hash commitments seal each shot's content (`commitment`),
two-party committed coin flips pick which sealed shot a patient gets
(`coinflip`), a signed-transaction ledger serializes and audits every
step (`keys`, `ledger`, `logio`), the trial contract enforces the
protocol (`contract`), and a scenario harness drives honest and
adversarial actors through whole trials (`actors`, `cli`).
"""
