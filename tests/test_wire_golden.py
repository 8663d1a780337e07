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
a CHANGES.md entry that says why the bytes moved.  Version 5 wrote every
image without a provenance word in collected form, which moved the map,
decomposition, square and inverses digests of the cells with brackets; the
V4 tables keep the older digests, and the same artifacts spelled back into
words (`spelled_map`, `as_v4`) must still give them.  Version 6 wrote the
lifted central pieces as their terms and every offsets term as a pair,
which moved every decomposition digest (its "version" key changed too) and
no other; V5_DECOMPOSITION keeps the older ones, which `as_v5` must still
give.
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
    loads,
    map_payload,
    report_payload,
)

from test_wire_fixtures import as_v3, as_v4, as_v5, spelled_map

SEED = 20261018
MOVES = 12

# (rank, class, |D|) -> artifact name -> SHA-256 of its compact JSON
GOLDEN = {
    (10, 1, 2): {
        "map": "1a824b713bb95a364a1e0c06c07c7eb0d0b0dda10cb008c11279e54b90cf4f14",
        "decomposition": "06f91077894d0e5d2b7f548cdad4c7696c4c6c893388201fec4c95e14d553d86",
        "report": "395e1880dd6ad539f209803b868cb663b5ddb8871ce6b9a1e7266c8a18443b7a",
        "square": "c19977fa022bbc182c286e984543cd84fef70bc90e6b37171be05e5dd53e6da2",
        "inverses": "3992dc99cba6f2ff77df793301c7ee4bb31a038b5fa2a6f137efa5d65cbe2a8d",
    },
    (10, 2, 1): {
        "map": "8a8cf85a9c566bfcbe2102d26b39c7e89f587cc4f9545a7ed0402600b0b3fcfb",
        "decomposition": "4184fb2d9ba7d02c34792dbd2f90495e31308be3481f832ae572bcee2ad6724a",
        "report": "53ffde0b37dc629012c15688c3afbc95633b16372b55e50e7f3d8f2ecc81004c",
        "square": "4d83c9a2b9950b1ac07349ca5e0616aef4da6f175482b5ef3b3b05bf072d7928",
        "inverses": "9c8a375d97f5a14ea0f5ca9dd534c507bf7d9a9faed8f20a966f9a1e4eeeb067",
    },
    (9, 3, 0): {
        "map": "3acee36a7d7726b396a1f770526c1f908077b813852495d2b012f06c0881beeb",
        "decomposition": "3c9ad4ffee1c61152166140aaf750ac4582dff4d0aecf3891d6b9c742123db22",
        "report": "bdbf0a6b01a4986b789b32699c17f8e3a90b1c11520001aa1c3ce7fa69a50335",
        "square": "6ae836e7b837930dabc9fcfee8b1aabbc6a62ef8213e5e64b82fcda984a1ab4e",
        "inverses": "c7a5dc4e1dacbd3f575f5581c14af46a5ac21b4fe85da3d568e02a70da237f68",
    },
    (12, 3, 2): {
        "map": "168af7d3fb70e359788449764c6498b5c8e75a9dddbec8a82946883de8691e1b",
        "decomposition": "407459fd6db8f6449b9816a9a212eb16e29ef189bce52f81a06f6061a7d876b4",
        "report": "962ae7c90ad338264a9118bebe8f30fa5ca61ef9b600f19a4a4ae9aca23e93fa",
        "square": "ccf1f21ac93d0ea6ea6e2ff80a8378e79afc63bf8f615d3f6211fae5a3457e5e",
        "inverses": "65edc88ef2e78427046db39c351735f4bfa1483388f93ce333bc5759c54dfcea",
    },
    (12, 4, 2): {
        "map": "fd9e363d6b0987b7904cc4c4dbee627b04a5d5724fb2f0a1ee7bc2cb39c318a2",
        "decomposition": "aa1cb73741179f64a832e73a0d05ecf7e94869de99c0d3676fb1eb446d53b850",
        "report": "962ae7c90ad338264a9118bebe8f30fa5ca61ef9b600f19a4a4ae9aca23e93fa",
        "square": "646b6a87f6dd6a2cad0872e58164d8e97a87d78091c1d5fd4b697991abf295a8",
        "inverses": "8be1e7a7d7efab94bac01c1db438f765f48c5ca60d6facb29bd3c1a1968a53f3",
    },
    # high rank at class 2: the class-1 stage's row reduction of a 31 x 31
    # and a 63 x 63 free block
    (32, 2, 1): {
        "map": "2b7a9dd63b84948cbe242b7e14e7c30a187d502d1218face563b09e6de4e4079",
        "decomposition": "cdafe76129a16d461100acdfe94294bbe12ad0a7d841ed2dd007fa63f600042a",
        "report": "c41cfed685a6575dc4927ba1e7dfde786d390a5adcf81ddf893758fe6d249cd2",
        "square": "5ced32dbc7c02410edc211ddbf931cf05c41b506f6ff2cd930b0944704163cd2",
        "inverses": "70ac6a64e8b14a30a543b116ffabd07c2e439e053bf2e061100c634f368eadd5",
    },
    (64, 2, 1): {
        "map": "0fcea0bff8764627d75535b1171c5ef3e3fe4b4b99ffaf2d6b001b316c47211b",
        "decomposition": "3f4e932bc7ccae24a25d15fe79080520bb9e05716f79f450be60afd19492a446",
        "report": "3b4b72bbcaeba6c6e9b02557d69a638b91db69169bca72ae5ad3cbbb076f30c5",
        "square": "26ef03b91f18b3d6ce2d080e2ae17a331e3324f80f575557214e9ca4c1ed873f",
        "inverses": "9e01a74516cffc85f896dd0944934e8812efc06430244df6faa3c381ccae6ff2",
    },
    # classes 5 and 6: three and four levels of central_beta factors, each
    # lifted to the top class
    (13, 5, 1): {
        "map": "5eed06d3c1a8c4e27f90dd6a75cad4e71ed78de4f9464407711a60e15050b1a7",
        "decomposition": "13e02e68de65bf6111830a2aae0eeba455c2e822bbad4243e5a60d80eb6ed8a7",
        "report": "2981108af1a64f84c3e16167726aecc393f3cf230184abd35d023eaae26ae133",
        "square": "569e4b35c0497e55d46b47739173f488b33293a34f201d397fc618b8f3f84ac3",
        "inverses": "3a881e8451e302eb1473874ab350a5fadc190c18d4c745e24b1bafe8f5d70b42",
    },
    (15, 6, 1): {
        "map": "9f88fefe765cbc6885d45e270a08e35af672a3c796633ad8c8acdb5479f34e9b",
        "decomposition": "0b90fb1fe151a6acbdf6a37394e1d5bda31bf0bb9b56b9c637b964c91c2db6e1",
        "report": "91b5eb82d058a3e4c6b1408d68cd613124e8a6c1f1f39bafe6982b784dc9cbff",
        "square": "7acd6c1f0010ed1a0612d5b2e04ffe052b89973c16e9a0e1f6c1e8116fa85b3a",
        "inverses": "3984f3ac5ade3865f5d17a12c7f9516a10b7c4b395b240ec166da8881c6b1e1b",
    },
}

# each cell's artifacts with every image in collected form spelled out as
# version 4 wrote it (`spelled_map`, `as_v4`): the digests GOLDEN held
# before version 5.  The report does not change
V4_GOLDEN = {
    (10, 1, 2): {
        "map": "1a824b713bb95a364a1e0c06c07c7eb0d0b0dda10cb008c11279e54b90cf4f14",
        "decomposition": "37ead8d86180c4746444696dd188d9a2fbc16953c37f556b33f81e657a6c3656",
        "square": "c19977fa022bbc182c286e984543cd84fef70bc90e6b37171be05e5dd53e6da2",
        "inverses": "3992dc99cba6f2ff77df793301c7ee4bb31a038b5fa2a6f137efa5d65cbe2a8d",
    },
    (10, 2, 1): {
        "map": "38ed3ee2b4b234cf9d1811ef9ff202fe34f9a7f2ef60192ac9d67bbca7c8aa3f",
        "decomposition": "93b555f893b4620e6b3aa7f6f84622a81f7d9e0d0153b6c1a01af45b849e7fd4",
        "square": "094d79bf9b709bb28ca00e35043f9b496c2f1040e94cd64331e7900640d24dd8",
        "inverses": "e7f6f6b4ab93f0bb797c8063e1a56163c5a361580fe9e006f77a3280fe704f23",
    },
    (9, 3, 0): {
        "map": "d6c894c078bd05d41078b592eaeead52deaf5468934c7ef8eee51bc78fe86a95",
        "decomposition": "8f6f3bed55831d7e993ff1a93529c251d88938076e9f012c4b0c63b8286cdd6a",
        "square": "77ce1d1dc083050f89da431929ce19e525997634c15f02fdf69e11c6bc9039c4",
        "inverses": "e6bf6ca7218e1347b4e395df9f218abbbec80221f7b5bb5e2c7d967d5d51d8f7",
    },
    (12, 3, 2): {
        "map": "bdac19340610b220fc72b30ce35683adc595319244bd18c59924eaca020e0e24",
        "decomposition": "ddcd0d91148ad491ed214bb2221889741c395b838f1d54066a90212bbf6b03b7",
        "square": "6ae5ad60f8c73410bd9d9112996dee2c60b5d05f500914d4da957ec1dd5ce01c",
        "inverses": "a70c8afe8ee02109f4b6500b1b1ce9dade17526304e8014796b9bc834a9204e6",
    },
    (12, 4, 2): {
        "map": "aec85539f58fe0a9d2ae797712e15717aa4f6d1fef61b4dfa2ff0e3774eca377",
        "decomposition": "e2d890257331256e40522196e4f7f407b710e8f7b5fb3f31b04bbcf9866b5343",
        "square": "26edf35a8cfeac1faed8285d53959043f26edfcff919ac1392489446ee47b87f",
        "inverses": "74e42b6896a2a428996c65dd3f7873d8356d7eb136048398515e3429df56f84a",
    },
}

# each cell's "decomposition" digest as the version 5 writer made it, which
# as_v5 rebuilds from the version 6 payload
V5_DECOMPOSITION = {
    (10, 1, 2): "80caf24e3fd8c37bc94c25cd8b373c4378706c2121da83268b24775f505a2abc",
    (10, 2, 1): "4f017e44e36c40ebf96556eca3a2712cb34d37f5e745c91dc131b7b0991dd671",
    (9, 3, 0): "917acda3bfc0c3dfbc9160c1c9d25aa7adf4761cf0c3fb427894ea429ae1a8b5",
    (12, 3, 2): "e429dedb60db78c871da065e2c63e151f0a1d8127cba653537e184cba473ed10",
    (12, 4, 2): "9421a41585e74188ec0a7da61851e6926d14be4a8a88115a29469a0c1de9ed3f",
    (32, 2, 1): "fb283c2ff8f2bc54260bd92d5343fdfc0ea25bc49e2f38700b35c0b0ec41c07e",
    (64, 2, 1): "ab666b83e4dee04863da314552a151adcdfd4ba96cae7bc71d3e1c39086cdfe8",
    (13, 5, 1): "79cbaa0e571f10e042b4ee3ec2df52aca7f2524ed38c43755283a4cf481ab18b",
    (15, 6, 1): "21e896cd5528cef476117c54f0eadfcf85905dd29938248db8836951ed361b4a",
}

# each cell's "decomposition" digest as the version 3 writer made it, which
# as_v3 rebuilds from the version 6 payload
V3_DECOMPOSITION = {
    (10, 1, 2): "a4499a44624bd5ff8625c137f581bff1b5b7b6fb05cfa91ad54d148fd231297e",
    (10, 2, 1): "213891dba4c0a8d0252b4a3921348d0ba842e5dc5ffd27f2f1517b3f71860107",
    (9, 3, 0): "46e9393cf99b955e0f624006cfe5b5cf5f66e7d42822b6a4878cec48dc4c66b0",
    (12, 3, 2): "767997dda37c7e3444d06cebc0c07d72b6a32af8f54d459d6bbfdda12b64df85",
    (12, 4, 2): "5cc37a818376e9f990b7612f0a8d1968759a6f67000694bae941311ccaf61d26",
}

# the inverse of each cell's map, which no change to decompose may move: the
# output of invert-aut, and the sigma entry of "inverses"
INVERSION = {
    (10, 1, 2): {
        "invert-aut": "6a0b311fb87177f2118aabaa3be0002f14258e9e78e75ff4fc991a712ad3eee1",
        "sigma": "9618b6ab768e990c81b1de49c36331b4a991e79e2f7777c11fb2a32f156c4021",
    },
    (10, 2, 1): {
        "invert-aut": "425381f778d5477c07467f3a4bf083ae130efa54ea4abefb28d31985c71ce894",
        "sigma": "cebc1daaada27d7e5e0858e99842a0b5551eab819b7286880228a0f573596c67",
    },
    (9, 3, 0): {
        "invert-aut": "980531274009dac318fa3fb7c5744b57822aad8695956b517f676a4e8736b5ae",
        "sigma": "001e89c8fa5d7fe7a082dd026e6b4771bb38f4c93b27d3f5e94f55ef2b95da5e",
    },
    (12, 3, 2): {
        "invert-aut": "71038cb5fda050a28aa5608bea12d17263597e5369da385c0a945fd5fff31dc6",
        "sigma": "e83741491c571288d4ac1831acce9c2421f426431b6288f8d56e5a888b813f41",
    },
    (12, 4, 2): {
        "invert-aut": "026089f90e1db557d370528484c5c9efa3fcab358af510ee3935e29c82f14bdd",
        "sigma": "84875e910be448088f5c77fdfa317a3a9cb5f01767b284394915811e090c281f",
    },
}

# INVERSION before version 5, which the spelled-out outputs still give
V4_INVERSION = {
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


def _spelled(name: str, payload):
    # the artifact as the version 4 writer wrote it
    if name == "decomposition":
        return as_v4(payload)
    if name == "inverses":
        return [{**entry, "map": spelled_map(entry["map"])} for entry in payload]
    return spelled_map(payload)


@pytest.mark.parametrize("cell", sorted(V4_GOLDEN))
def test_v5_artifacts_spell_back_to_the_v4_bytes(cell):
    artifacts = _artifacts(*cell)
    got = {name: _digest(_spelled(name, artifacts[name])) for name in V4_GOLDEN[cell]}
    assert got == V4_GOLDEN[cell]


@pytest.mark.parametrize("cell", sorted(V5_DECOMPOSITION))
def test_v6_decomposition_rebuilds_the_v5_bytes(cell):
    payload = _artifacts(*cell)["decomposition"]
    assert payload["version"] == 6
    assert _digest(as_v5(payload)) == V5_DECOMPOSITION[cell]


@pytest.mark.parametrize("cell", sorted(V3_DECOMPOSITION))
def test_v4_decomposition_rebuilds_the_v3_bytes(cell):
    payload = _artifacts(*cell)["decomposition"]
    assert payload["version"] == 6
    assert _digest(as_v3(payload)) == V3_DECOMPOSITION[cell]


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
    assert _digest(spelled_map(loads(text))) == V4_INVERSION[cell]["invert-aut"]
    psi, rounds = invert_with_rounds(sigma)
    assert _digest({"map": map_payload(psi), "rounds": rounds}) == INVERSION[cell]["sigma"]
    spelled = {"map": spelled_map(map_payload(psi)), "rounds": rounds}
    assert _digest(spelled) == V4_INVERSION[cell]["sigma"]
