"""Golden bytes of the command line: the exit code and the sha256 of
standard output for a fixed set of invocations, in text and JSON.

Output is meant to stay byte-identical across refactors, so a changed
digest here is a changed output.  A change that alters output on
purpose records the new digest and says why.
"""

import contextlib
import hashlib
import io

import pytest

from plucker.cli import main

FORMAL = ("--base", "formal", "--truncation", "3", "--rank", "4", "--formal-bundle", "-d", "2")
TWO_FAMILY = ("--base", "formal", "--truncation", "2", "--families", "2", "--rank", "3",
              "--formal-bundle", "--family", "1", "-d", "1")
SPLIT = ("--base", "P3", "--roots=2,1,-1", "-d", "2")
RATIONAL_SEGRE = ("--base", "P2", "--rank", "3", "--segre", "1,3/2,-7/4", "-d", "1")
# the off-by-one denominator breaks agreement: exit 1 in both formats
DISAGREE = ("--base", "point", "--rank", "4", "-d", "2", "--denominator", "displayed")
JSON = ("--format", "json")

GOLDEN = [
    (("chern-pushforward",) + FORMAL, 0,
     "3b3a8b3f2b38d39ea11fc0c87f66e97c6e173168de1385a5309c897e65850fbc"),
    (("chern-pushforward",) + TWO_FAMILY, 0,
     "cb099d7a546161a2083808726b22570a7aead8ac5ea72b3cabe345bb04282952"),
    (("chern-pushforward",) + SPLIT, 0,
     "f1438b0425e50927f94c8eed00799964b09bbf74f73120f9e3e90c97e12ec7b9"),
    (("chern-pushforward",) + RATIONAL_SEGRE, 0,
     "4bb4961e99a864dd6363096a117e8b49207666413dac491afc0c7f23e49e3810"),
    (("chern-pushforward",) + DISAGREE, 1,
     "8536fb587ea97c49ab6d79b68afb0a7a08f5779c8b9d5c8374ed9c2c38df6e99"),
    (("chern-pushforward",) + FORMAL + JSON, 0,
     "7f9fc32de580087a0b22c5cb3633ba3a1cd00a81f1aff669393adc46844f04f0"),
    (("chern-pushforward",) + TWO_FAMILY + JSON, 0,
     "e4197bc9e7a1c7183dae5511483ea2ed9587597e69115ad29c42fd18cf487500"),
    (("chern-pushforward",) + SPLIT + JSON, 0,
     "02f5491c714b258ec35c2db7914e9fb9fc148348b6e88f7d76e6cdd7a55bf6c1"),
    (("chern-pushforward",) + RATIONAL_SEGRE + JSON, 0,
     "03f317f7c3a7cd31d605b11acb2e83fa5590b62bc35a954e6a9c4f6a69e5461e"),
    (("chern-pushforward",) + DISAGREE + JSON, 1,
     "58c19140580283233f7cdd5d9f55bbca605ba147173b53a2e8cd44c12f721d10"),
    (("degree", "--base", "P2", "--roots", "2,1,0", "-d", "2") + JSON, 0,
     "17c2049bba5b18d40420522e951fe2e70352021fbe35ec616e47e47a725f4d74"),
    (("verify", "--max-rank", "3") + JSON, 0,
     "0be9df3c86efaecb51bbbc57336d30c6eebd79794200aa9774a469f6e0af4277"),
    (("identity-check", "--trials", "30", "--truncation", "4") + JSON, 0,
     "ac62614da21f62fe46cf9190a5e0502a05328e01b9b3403a750230da67c73e55"),
    (("degree", "--base", "point", "--rank", "5", "-d", "2", "--denominator", "displayed")
     + JSON, 0,
     "086682d12cac01aa4029e9a99453c8b5abf35b4fbd39259ca59b7deed58f3d62"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_stdout_bytes_pinned(argv, code, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        got = main(list(argv))
    assert got == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
