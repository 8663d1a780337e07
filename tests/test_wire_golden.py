"""Golden wire bytes: pinned SHA-256 digests of seeded serialized artifacts.

Criterion 9 compares two runs of the same tree; these digests compare the
tree against the bytes it produced when they were pinned, so a refactor that
changes a single serialized byte fails here.  Each cell draws one seeded
automorphism fixing D = {1..|D|} and digests, as compact JSON:

  map            map_payload of the automorphism
  decomposition  decomposition_payload of decompose(sigma, D)
  report         report_payload of verify on that decomposition
  square         map_payload of compose(sigma, sigma) (word-less images)
  inverses       map payloads and round counts of invert_with_rounds on
                 sigma and on every factor map

A digest only changes when the wire bytes do; update one only together with
a CHANGES.md entry that says why the bytes moved.
"""

import hashlib

import pytest

from freenil import (
    GroupContext,
    compose,
    decompose,
    invert_with_rounds,
    random_automorphism,
    verify,
)
from freenil.jsonio import (
    decomposition_payload,
    dumps,
    map_payload,
    report_payload,
)

SEED = 20261018
MOVES = 12

# (rank, class, |D|) -> artifact name -> SHA-256 of its compact JSON
GOLDEN = {
    (10, 1, 2): {
        "map": "1a824b713bb95a364a1e0c06c07c7eb0d0b0dda10cb008c11279e54b90cf4f14",
        "decomposition": "60c5055ebc10abe25846c0594469673c254177ecaa57fbe68aa53cb06f27f438",
        "report": "d89169ca93740736dc539d9be61c1363ce574c1374897d1035953558423675e1",
        "square": "c19977fa022bbc182c286e984543cd84fef70bc90e6b37171be05e5dd53e6da2",
        "inverses": "31449a417e54c6d2e51d5d4e589606b4d2779117fd7fbbff8f33087715cd88f5",
    },
    (10, 2, 1): {
        "map": "38ed3ee2b4b234cf9d1811ef9ff202fe34f9a7f2ef60192ac9d67bbca7c8aa3f",
        "decomposition": "4985bae2d25f3328e81ab2ac7ef9ccfb9aa527719bf4c943ee09d959e0e72c4a",
        "report": "166d4cc4b3742959ee70ec644bc73131df751e0853ad833ff74aefb57c66b972",
        "square": "094d79bf9b709bb28ca00e35043f9b496c2f1040e94cd64331e7900640d24dd8",
        "inverses": "a7ba16b21a92e2259c07d09e591de167c833bd4a7cf1a00d33fcb020b6d09970",
    },
    (9, 3, 0): {
        "map": "d6c894c078bd05d41078b592eaeead52deaf5468934c7ef8eee51bc78fe86a95",
        "decomposition": "54dac5a67c01afe795ef90eb5c599d49f8c3635041445503fc59fbef12a14ad7",
        "report": "93b5c2add135e5adb4282285a0b38875f76adfd9e7268946bab676a73fdefd4f",
        "square": "77ce1d1dc083050f89da431929ce19e525997634c15f02fdf69e11c6bc9039c4",
        "inverses": "b8b961cc46448c49b1e26dc22e343730a91dff4df913f6f5d8f28aa33a81479c",
    },
    (12, 3, 2): {
        "map": "bdac19340610b220fc72b30ce35683adc595319244bd18c59924eaca020e0e24",
        "decomposition": "1c57641f5a6546a4c3672384e5bfdbd272604113338b5d4e6b5c870d56117559",
        "report": "94797118b9980323a56c891985dde2a717ade96c085ad848381529625dadf1d4",
        "square": "6ae5ad60f8c73410bd9d9112996dee2c60b5d05f500914d4da957ec1dd5ce01c",
        "inverses": "e9143a3bcc985be65f17a052c67acd7c784314894ca3d1b5eca3273790267982",
    },
    (12, 4, 2): {
        "map": "aec85539f58fe0a9d2ae797712e15717aa4f6d1fef61b4dfa2ff0e3774eca377",
        "decomposition": "cbf8a6e1392153c099da48c851e34a701c60fb675da8430d206f73ffcf4199e7",
        "report": "374439d563f73bda76b73116759caafe9be4cb59844e157da79fc66af0bc4f32",
        "square": "26edf35a8cfeac1faed8285d53959043f26edfcff919ac1392489446ee47b87f",
        "inverses": "c445460c700513f65f4b7b95bb45e5ae5b0a0dee099cb1d72646683711257feb",
    },
}


def _artifacts(rank, nilclass, pinned):
    ctx = GroupContext(rank, nilclass)
    fixed = range(1, pinned + 1)
    sigma = random_automorphism(ctx, SEED + rank, MOVES, fix=fixed)
    dec = decompose(sigma, fixed)
    inverses = []
    for phi in [sigma, *(f.map for f in dec.factors)]:
        psi, rounds = invert_with_rounds(phi)
        inverses.append({"map": map_payload(psi), "rounds": rounds})
    return {
        "map": map_payload(sigma),
        "decomposition": decomposition_payload(dec),
        "report": report_payload(verify(dec)),
        "square": map_payload(compose(sigma, sigma)),
        "inverses": inverses,
    }


def _digest(payload) -> str:
    return hashlib.sha256(dumps(payload).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_wire_bytes_match_golden_digests(cell):
    got = {name: _digest(payload) for name, payload in _artifacts(*cell).items()}
    assert got == GOLDEN[cell]
