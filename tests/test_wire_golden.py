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
from freenil.cli import main
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
        "decomposition": "a4499a44624bd5ff8625c137f581bff1b5b7b6fb05cfa91ad54d148fd231297e",
        "report": "395e1880dd6ad539f209803b868cb663b5ddb8871ce6b9a1e7266c8a18443b7a",
        "square": "c19977fa022bbc182c286e984543cd84fef70bc90e6b37171be05e5dd53e6da2",
        "inverses": "3992dc99cba6f2ff77df793301c7ee4bb31a038b5fa2a6f137efa5d65cbe2a8d",
    },
    (10, 2, 1): {
        "map": "38ed3ee2b4b234cf9d1811ef9ff202fe34f9a7f2ef60192ac9d67bbca7c8aa3f",
        "decomposition": "213891dba4c0a8d0252b4a3921348d0ba842e5dc5ffd27f2f1517b3f71860107",
        "report": "53ffde0b37dc629012c15688c3afbc95633b16372b55e50e7f3d8f2ecc81004c",
        "square": "094d79bf9b709bb28ca00e35043f9b496c2f1040e94cd64331e7900640d24dd8",
        "inverses": "e7f6f6b4ab93f0bb797c8063e1a56163c5a361580fe9e006f77a3280fe704f23",
    },
    (9, 3, 0): {
        "map": "d6c894c078bd05d41078b592eaeead52deaf5468934c7ef8eee51bc78fe86a95",
        "decomposition": "46e9393cf99b955e0f624006cfe5b5cf5f66e7d42822b6a4878cec48dc4c66b0",
        "report": "bdbf0a6b01a4986b789b32699c17f8e3a90b1c11520001aa1c3ce7fa69a50335",
        "square": "77ce1d1dc083050f89da431929ce19e525997634c15f02fdf69e11c6bc9039c4",
        "inverses": "e6bf6ca7218e1347b4e395df9f218abbbec80221f7b5bb5e2c7d967d5d51d8f7",
    },
    (12, 3, 2): {
        "map": "bdac19340610b220fc72b30ce35683adc595319244bd18c59924eaca020e0e24",
        "decomposition": "767997dda37c7e3444d06cebc0c07d72b6a32af8f54d459d6bbfdda12b64df85",
        "report": "962ae7c90ad338264a9118bebe8f30fa5ca61ef9b600f19a4a4ae9aca23e93fa",
        "square": "6ae5ad60f8c73410bd9d9112996dee2c60b5d05f500914d4da957ec1dd5ce01c",
        "inverses": "a70c8afe8ee02109f4b6500b1b1ce9dade17526304e8014796b9bc834a9204e6",
    },
    (12, 4, 2): {
        "map": "aec85539f58fe0a9d2ae797712e15717aa4f6d1fef61b4dfa2ff0e3774eca377",
        "decomposition": "5cc37a818376e9f990b7612f0a8d1968759a6f67000694bae941311ccaf61d26",
        "report": "962ae7c90ad338264a9118bebe8f30fa5ca61ef9b600f19a4a4ae9aca23e93fa",
        "square": "26edf35a8cfeac1faed8285d53959043f26edfcff919ac1392489446ee47b87f",
        "inverses": "74e42b6896a2a428996c65dd3f7873d8356d7eb136048398515e3429df56f84a",
    },
}

# the inverse of each cell's map, which no change to decompose may move: the
# output of invert-aut, and the sigma entry of "inverses"
INVERSION = {
    (10, 1, 2): {
        "invert-aut": "6a0b311fb87177f2118aabaa3be0002f14258e9e78e75ff4fc991a712ad3eee1",
        "sigma": "9618b6ab768e990c81b1de49c36331b4a991e79e2f7777c11fb2a32f156c4021",
    },
    (10, 2, 1): {
        "invert-aut": "1c13dce9c7b4ee98724210fefad96d24b3e0bc75dec96d014f87abe3f3a301e0",
        "sigma": "b349150ca2a455c6976b6e3e039a9e5bec7392fc9b9c2684380aea9f44d9c69b",
    },
    (9, 3, 0): {
        "invert-aut": "f5bbad3ea0f00fd67f1e8de40235236bdc85750ec126c61bb130a20834aba113",
        "sigma": "b61f3b0c594d7486d6a679d9a4059e3024b8909da1f73ab5b6212d1d5139d42c",
    },
    (12, 3, 2): {
        "invert-aut": "157ea0ef013d75cb4454895dce0e1b2e39722b246c671e4fb60316c3dbd03594",
        "sigma": "696e4d716940aab58567a0d8f35d0fc6943b367ec4f5c0b521a1a1fce733387b",
    },
    (12, 4, 2): {
        "invert-aut": "736bcda946d1505e54dca43213917bda9870fcfb3f562b9a601dd3cadde1fd88",
        "sigma": "5d6bb11ff1bb7302960b676a25bd8be08c2f4657bf0a09f43852540c1ee1dc11",
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


@pytest.mark.parametrize("cell", sorted(INVERSION))
def test_inverse_of_the_map_keeps_its_bytes(cell, tmp_path):
    rank, nilclass, pinned = cell
    ctx = GroupContext(rank, nilclass)
    sigma = random_automorphism(ctx, SEED + rank, MOVES, fix=range(1, pinned + 1))
    infile, outfile = tmp_path / "map.json", tmp_path / "inverse.json"
    infile.write_text(dumps(map_payload(sigma)), encoding="utf-8")
    assert main(["invert-aut", "--in", str(infile), "--out", str(outfile)]) == 0
    text = outfile.read_text(encoding="utf-8")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == INVERSION[cell]["invert-aut"]
    psi, rounds = invert_with_rounds(sigma)
    assert _digest({"map": map_payload(psi), "rounds": rounds}) == INVERSION[cell]["sigma"]
