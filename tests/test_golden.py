"""Golden pins: the sha256 of stdout and the exit code of every CLI command.

Covers all six commands at p = 2, 3, 5, 7 in text and JSON, ``enumerate``
and ``verify`` in both modes, and ``mu``/``check``/``decompose`` on a
perfect affine map, its negation and a non-perfect map.  The non-perfect
map at p = 2 (``+0,-1``) fails separation.  At p >= 5 it is the affine map
with the images of 1 and 2 swapped, which fails integrality; at p = 3 every
permutation is affine, so one sign is flipped instead.

At scale, ``chartab`` runs at p = 23 and 53, and ``mu``, ``check`` and
``decompose`` run there on the affine map, its negation, the swapped-affine
map and a random signed map (drawn once from ``random.Random(p)``: a
shuffle, then one sign per index); ``enumerate`` and ``verify`` run at
p = 13 in both modes, and ``verify`` runs at p = 53 in both modes.  In the
default mode, ``enumerate`` runs at p = 53 and 101 and ``verify`` at p = 101,
and ``check`` runs at p = 101 on the same four kinds of map as at p = 23 and 53.
At p = 101, ``chartab`` runs too, ``mu`` on the affine and the random signed
map, and ``decompose`` on the affine map.

Regenerate the table only for a deliberate output change:
``python tests/test_golden.py`` prints it.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from perfiso.cli import main

FORMATS = ("text", "json")
MODES = ("positive_then_negate", "exhaustive")
SEARCH_P = 13
VERIFY_P = 53
SCALE_P = 101
CERTIFY_P = (23, 53)
# p -> (perfect affine map k -> 1 + 2k, its negation, a non-perfect map)
MAPS = {
    2: ("+1,+0", "-1,-0", "+0,-1"),
    3: ("+1,+0,+2", "-1,-0,-2", "+1,+0,-2"),
    5: ("+1,+3,+0,+2,+4", "-1,-3,-0,-2,-4", "+1,+0,+3,+2,+4"),
    7: ("+1,+3,+5,+0,+2,+4,+6", "-1,-3,-5,-0,-2,-4,-6", "+1,+5,+3,+0,+2,+4,+6"),
}
RANDOM_SIGNED = {
    23: "-14,-17,+1,+8,+5,-6,+19,+10,-16,-20,-7,-4,+3,-15,+21,-11,-12,+13,+22,+18,-0,+2,+9",
    53: (
        "+9,+19,+5,+21,+49,+0,-51,-15,-34,-43,+26,+47,-17,-18,+46,+41,+27,-38,-52,+42,"
        "-12,+25,-35,-20,+24,-37,+11,-31,+4,-7,+6,-28,-14,+44,-36,+40,-3,+16,-8,+22,"
        "-10,+2,+1,-50,-23,-33,+48,+30,+45,-32,+29,+13,-39"
    ),
    101: (
        "+52,+90,-35,+3,+72,+44,-10,-91,-7,+98,+83,-49,-73,+78,+57,-39,-19,+97,-37,+66,"
        "-43,-5,+15,-18,+81,-33,+40,+21,-12,+31,+75,+53,-67,-80,+61,-2,+94,-89,-16,+48,"
        "-100,-23,+1,+22,-95,-34,-13,-29,-0,+70,+88,+47,+58,+4,+65,+93,-76,+50,-25,+17,"
        "-79,+71,-63,+86,+14,-87,-38,-96,-55,-8,+26,-54,+51,-30,-41,+60,+82,+46,-68,"
        "-85,-11,+20,-99,+32,+9,-56,+42,+92,-62,-36,-28,+77,-27,+64,+84,-6,+59,+45,-69,"
        "-24,+74"
    ),
}


def _scale_maps(p):
    """Affine k -> 1 + 2k, its negation, it with the images of 1 and 2 swapped, a random map."""
    image = [(1 + 2 * k) % p for k in range(p)]
    swapped = list(image)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    return (
        ",".join(f"+{i}" for i in image),
        ",".join(f"-{i}" for i in image),
        ",".join(f"+{i}" for i in swapped),
        RANDOM_SIGNED[p],
    )


def _cases():
    for p, maps in MAPS.items():
        for fmt in FORMATS:
            yield ("chartab", "-p", str(p), "--format", fmt)
            for command in ("enumerate", "verify"):
                for mode in MODES:
                    yield (command, "-p", str(p), "--mode", mode, "--format", fmt)
            for command in ("mu", "check", "decompose"):
                for literal in maps:
                    yield (command, "-p", str(p), f"--map={literal}", "--format", fmt)
    for p in CERTIFY_P:
        for fmt in FORMATS:
            yield ("chartab", "-p", str(p), "--format", fmt)
            for command in ("mu", "check", "decompose"):
                for literal in _scale_maps(p):
                    yield (command, "-p", str(p), f"--map={literal}", "--format", fmt)
    for fmt in FORMATS:
        for command in ("enumerate", "verify"):
            for mode in MODES:
                yield (command, "-p", str(SEARCH_P), "--mode", mode, "--format", fmt)
    for fmt in FORMATS:
        for mode in MODES:
            yield ("verify", "-p", str(VERIFY_P), "--mode", mode, "--format", fmt)
    for fmt in FORMATS:
        yield ("enumerate", "-p", str(VERIFY_P), "--format", fmt)
        yield ("verify", "-p", str(SCALE_P), "--format", fmt)
        yield ("enumerate", "-p", str(SCALE_P), "--format", fmt)
    for fmt in FORMATS:
        for literal in _scale_maps(SCALE_P):
            yield ("check", "-p", str(SCALE_P), f"--map={literal}", "--format", fmt)
    affine, _, _, random_signed = _scale_maps(SCALE_P)
    for fmt in FORMATS:
        yield ("chartab", "-p", str(SCALE_P), "--format", fmt)
        for literal in (affine, random_signed):
            yield ("mu", "-p", str(SCALE_P), f"--map={literal}", "--format", fmt)
        yield ("decompose", "-p", str(SCALE_P), f"--map={affine}", "--format", fmt)


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


GOLDEN = {
    'chartab -p 2 --format text': (0, '75518ab4740fcaf7c19c3ae7e40169b2e30e3a1fe6271167b4e1aa240451cdef'),
    'enumerate -p 2 --mode positive_then_negate --format text': (0, '91ae5627ea90a99058f6b330cb57b4287b23df582304ebf96284f8617f685fcb'),
    'enumerate -p 2 --mode exhaustive --format text': (0, '91ae5627ea90a99058f6b330cb57b4287b23df582304ebf96284f8617f685fcb'),
    'verify -p 2 --mode positive_then_negate --format text': (0, 'eec76a0c24d5ee21f7d433893c4858141615d65899b19ff122a81bdcd54c17bd'),
    'verify -p 2 --mode exhaustive --format text': (0, 'eec76a0c24d5ee21f7d433893c4858141615d65899b19ff122a81bdcd54c17bd'),
    'mu -p 2 --map=+1,+0 --format text': (0, '9f2c101cbac0fc6cf42ab78ffc7e87b784bb371b5cc523346320cf299ac197f9'),
    'mu -p 2 --map=-1,-0 --format text': (0, 'c988395cb1e1a2947d60587408c0e48c139be732495275067127a4543902165c'),
    'mu -p 2 --map=+0,-1 --format text': (0, '2f2c2670b5340093591a480cc0993c3177d270698f0a59fb26c4a2cf89f4d6e3'),
    'check -p 2 --map=+1,+0 --format text': (0, 'ee10ad9d9e708cfdb987912aa8cbd1f927cddff09e6715a28bc33fb457536fa1'),
    'check -p 2 --map=-1,-0 --format text': (0, 'ee10ad9d9e708cfdb987912aa8cbd1f927cddff09e6715a28bc33fb457536fa1'),
    'check -p 2 --map=+0,-1 --format text': (1, '577638694f5b338348abd1843107225818f916b8289eca2cafe1c85c00d30b0f'),
    'decompose -p 2 --map=+1,+0 --format text': (0, '47fc8cf48075d32580dc8c4c4e5c042f900d3d69a73741245c03ed1abfdbb287'),
    'decompose -p 2 --map=-1,-0 --format text': (0, 'a3759c1234380407167b8a2c2128a3745961c06000433521444d61841deb646d'),
    'decompose -p 2 --map=+0,-1 --format text': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'chartab -p 2 --format json': (0, '6d33285693b561642aa7dfd5b0f8d18dfdfd49ccf3b004f9fc4ae4b435467347'),
    'enumerate -p 2 --mode positive_then_negate --format json': (0, '778ed4f05f2599fd789ad5ea55b13961089da3eb202c4f447e37ea0d145e3cc5'),
    'enumerate -p 2 --mode exhaustive --format json': (0, '778ed4f05f2599fd789ad5ea55b13961089da3eb202c4f447e37ea0d145e3cc5'),
    'verify -p 2 --mode positive_then_negate --format json': (0, 'a701504c66b571c81301858016139a8b11f18cd6a3bad553feec1c1a2ea131cb'),
    'verify -p 2 --mode exhaustive --format json': (0, 'a701504c66b571c81301858016139a8b11f18cd6a3bad553feec1c1a2ea131cb'),
    'mu -p 2 --map=+1,+0 --format json': (0, '3a55c387c2e6d6bd6d1f1f6c0279e5ff2f882269ac034b5c85c0323005bebe1e'),
    'mu -p 2 --map=-1,-0 --format json': (0, 'fd3599e37980e311f4a0f979e7dce6d3c59baef27852ab3d3f3ce946d52deed9'),
    'mu -p 2 --map=+0,-1 --format json': (0, 'd387d4d3d3aae48a182e0f85012182b96e1755a0860758119251eb1218c0bb44'),
    'check -p 2 --map=+1,+0 --format json': (0, 'd6de393361594772001fb6077f410ab1f51e4e8752f4c69416d87961361236c1'),
    'check -p 2 --map=-1,-0 --format json': (0, '664a10de5e1b08ccf8c4bc3d19a9028dce1a26949edf4a2a7ba3e5e13ef35fee'),
    'check -p 2 --map=+0,-1 --format json': (1, '152415d446d3df11905d352d5d633e29f3f214ff622848c0cb6c834e863e302f'),
    'decompose -p 2 --map=+1,+0 --format json': (0, 'ba957796c765b10e39436af6582acf9c28de70f4176fce8652dfe0ef1ae2701f'),
    'decompose -p 2 --map=-1,-0 --format json': (0, 'b137496044cd2959b28e4d406e2c10328fe89a22b41f4ce177d28b47f4fc52d2'),
    'decompose -p 2 --map=+0,-1 --format json': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'chartab -p 3 --format text': (0, '883f1d3389c6d8ff95fa6ccb5821b8e95e0bf875674721196dc2ffc8613abf49'),
    'enumerate -p 3 --mode positive_then_negate --format text': (0, 'f656739055ca80f1a6000685a526725acd1f9d13676cc666c67cde6c4e9ee94c'),
    'enumerate -p 3 --mode exhaustive --format text': (0, 'f656739055ca80f1a6000685a526725acd1f9d13676cc666c67cde6c4e9ee94c'),
    'verify -p 3 --mode positive_then_negate --format text': (0, '34e4890ed132c97c02af8a9a19bd172bbebf2a2da3d6777c6c11fb7a587f0179'),
    'verify -p 3 --mode exhaustive --format text': (0, '34e4890ed132c97c02af8a9a19bd172bbebf2a2da3d6777c6c11fb7a587f0179'),
    'mu -p 3 --map=+1,+0,+2 --format text': (0, '1d2e06412f2f864988866b8413e564207aab88faa5981cbf755fdab17b9aefac'),
    'mu -p 3 --map=-1,-0,-2 --format text': (0, 'b2234f48a67761402888661d6b9240b6e63bfb6650442817e0ac69ee9c1bd11f'),
    'mu -p 3 --map=+1,+0,-2 --format text': (0, '574f29708fe6e367afc6ff2e49a5bbfaeb1aac5bbeb8754bdf580605b68d383b'),
    'check -p 3 --map=+1,+0,+2 --format text': (0, 'ee10ad9d9e708cfdb987912aa8cbd1f927cddff09e6715a28bc33fb457536fa1'),
    'check -p 3 --map=-1,-0,-2 --format text': (0, 'ee10ad9d9e708cfdb987912aa8cbd1f927cddff09e6715a28bc33fb457536fa1'),
    'check -p 3 --map=+1,+0,-2 --format text': (1, 'a852ddf9771d272a29cfafb17848e02f493cc8c91c4595f4eab54ca0e1a95ce3'),
    'decompose -p 3 --map=+1,+0,+2 --format text': (0, '67e76efc9a6d2d8b241212d44ddb2254f6fe01d7b75a3982336367961fa125ac'),
    'decompose -p 3 --map=-1,-0,-2 --format text': (0, 'f6e2f140e3dec2b516ba0c61d9ffcaadd2cb799f5e999fa40e2d3d3b76ef5a67'),
    'decompose -p 3 --map=+1,+0,-2 --format text': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'chartab -p 3 --format json': (0, 'c31324c3fb5222581e84c75827ebce4dea34242587846ae3b882f1f24dfd533f'),
    'enumerate -p 3 --mode positive_then_negate --format json': (0, '068d8c9b86250a69af38995f4bdd8b78b91c1afe00902186490d92cfeff23412'),
    'enumerate -p 3 --mode exhaustive --format json': (0, '068d8c9b86250a69af38995f4bdd8b78b91c1afe00902186490d92cfeff23412'),
    'verify -p 3 --mode positive_then_negate --format json': (0, 'db6a3940239ea24b4231730c88982f683bac7d544b4aa063e2479748436ae8a2'),
    'verify -p 3 --mode exhaustive --format json': (0, 'db6a3940239ea24b4231730c88982f683bac7d544b4aa063e2479748436ae8a2'),
    'mu -p 3 --map=+1,+0,+2 --format json': (0, '8a3556ed68963579908ae693d0e3aecdb66ffddcc52d312e3db385d13787efa7'),
    'mu -p 3 --map=-1,-0,-2 --format json': (0, '674047a241b94c2d1fb80e5d68fcaf7304745ea8ad74913a8c03bcd7e22924dc'),
    'mu -p 3 --map=+1,+0,-2 --format json': (0, '039368aa0daf111900730401ec2b33324be29bc79537c4e0950fb25ea3e6b79d'),
    'check -p 3 --map=+1,+0,+2 --format json': (0, '184a1093d44a9240955caafcf99f52fbb632be5ab3c0888cb4612847dbda4106'),
    'check -p 3 --map=-1,-0,-2 --format json': (0, '45c8ccca1b21d4c6cbc053cbce4117ee13012af49b4c060aee56a6f81cf7bb1c'),
    'check -p 3 --map=+1,+0,-2 --format json': (1, 'cc851a55010845c5a100ebbad38ac89251a90f61d87b3586a82c17440a2947f5'),
    'decompose -p 3 --map=+1,+0,+2 --format json': (0, '1e85c7f80cb0a4bd3272462870e6bb670d3a7fc445c1892f2cdc306670e857c7'),
    'decompose -p 3 --map=-1,-0,-2 --format json': (0, 'b33065c5bfa1bf833d012af0904c270cfdb9153df585f57b7a75d51e54a4c8e4'),
    'decompose -p 3 --map=+1,+0,-2 --format json': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'chartab -p 5 --format text': (0, '015a832596aecfe11d854754cdff6fbbc5d87268d97cdee9dd4f2c3a67535ec7'),
    'enumerate -p 5 --mode positive_then_negate --format text': (0, '37b453eea1812c7826fd90c0b60c547787c86c90b0180b08686a54ad60384811'),
    'enumerate -p 5 --mode exhaustive --format text': (0, '37b453eea1812c7826fd90c0b60c547787c86c90b0180b08686a54ad60384811'),
    'verify -p 5 --mode positive_then_negate --format text': (0, '1e724e6d06455c17ececfe0be04b221c86d3b83abdad964719df1ce6ed21f101'),
    'verify -p 5 --mode exhaustive --format text': (0, '1e724e6d06455c17ececfe0be04b221c86d3b83abdad964719df1ce6ed21f101'),
    'mu -p 5 --map=+1,+3,+0,+2,+4 --format text': (0, '33487c78355dfc6c64261cd4059e3a827225ada5b614ec814c8c1e125c62a970'),
    'mu -p 5 --map=-1,-3,-0,-2,-4 --format text': (0, '65d5bbe478748aa28c56a8000d92e475a771d9840de84d334a50f6b35bf40058'),
    'mu -p 5 --map=+1,+0,+3,+2,+4 --format text': (0, '219e4ca2b6a2ea9884a230737a6f238299e894855c6d403498831ae1c83a7c4e'),
    'check -p 5 --map=+1,+3,+0,+2,+4 --format text': (0, 'ee10ad9d9e708cfdb987912aa8cbd1f927cddff09e6715a28bc33fb457536fa1'),
    'check -p 5 --map=-1,-3,-0,-2,-4 --format text': (0, 'ee10ad9d9e708cfdb987912aa8cbd1f927cddff09e6715a28bc33fb457536fa1'),
    'check -p 5 --map=+1,+0,+3,+2,+4 --format text': (1, 'e2d313158195e6d9d9a39c0938f56f25a3aac1d8c5de0a2dc1e69c3c18b7e391'),
    'decompose -p 5 --map=+1,+3,+0,+2,+4 --format text': (0, '67e76efc9a6d2d8b241212d44ddb2254f6fe01d7b75a3982336367961fa125ac'),
    'decompose -p 5 --map=-1,-3,-0,-2,-4 --format text': (0, 'f6e2f140e3dec2b516ba0c61d9ffcaadd2cb799f5e999fa40e2d3d3b76ef5a67'),
    'decompose -p 5 --map=+1,+0,+3,+2,+4 --format text': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'chartab -p 5 --format json': (0, '4ebcc9f428b4d5ea49f9e85598875f4f860164cb7e3e1ec1d106969d3a28ee1c'),
    'enumerate -p 5 --mode positive_then_negate --format json': (0, '3824625ecc6a496b9bcf8a311eb2b71caa392d731e6567ab65ee3f311c709019'),
    'enumerate -p 5 --mode exhaustive --format json': (0, '3824625ecc6a496b9bcf8a311eb2b71caa392d731e6567ab65ee3f311c709019'),
    'verify -p 5 --mode positive_then_negate --format json': (0, '142589f2231d0ac5cf8fd37c93c949784eceada5c83bc95bcb32874924e48f7c'),
    'verify -p 5 --mode exhaustive --format json': (0, '142589f2231d0ac5cf8fd37c93c949784eceada5c83bc95bcb32874924e48f7c'),
    'mu -p 5 --map=+1,+3,+0,+2,+4 --format json': (0, 'b40e024f0f9b26a6e1969bac73c43f1f16494a27279abe11f8a9614bd3df5ebe'),
    'mu -p 5 --map=-1,-3,-0,-2,-4 --format json': (0, '6da6d779f7e6c4045198991f26b88c18ff0c6e78bb46b05026b1ca897e12789a'),
    'mu -p 5 --map=+1,+0,+3,+2,+4 --format json': (0, '17798ef9b2d4a7d11f62870ab6162bc1c73ffc40984b3610cfa524cb501792dd'),
    'check -p 5 --map=+1,+3,+0,+2,+4 --format json': (0, '23b2c8c0fd4cc0528d92d7a194baa011a60c88d95e47eb9f1e9f88d20aa8dd6f'),
    'check -p 5 --map=-1,-3,-0,-2,-4 --format json': (0, '9f68853876e4def5f8eb1a9b7bc1d97d8c35e0d83555a345719947832cfc8d08'),
    'check -p 5 --map=+1,+0,+3,+2,+4 --format json': (1, 'dbc9a6926774b8f186857b84ee6c45421c6b8bdd9f94502af49ee6cd6bca389b'),
    'decompose -p 5 --map=+1,+3,+0,+2,+4 --format json': (0, '6035675fdcad5536eca2e05b40f0832a3ff7a99c49cdfb2723d5c8d062059e9a'),
    'decompose -p 5 --map=-1,-3,-0,-2,-4 --format json': (0, 'f904a84f49e10029e9dd9254b77cebba0b1d61764614d3dc7dc21692d5949bc6'),
    'decompose -p 5 --map=+1,+0,+3,+2,+4 --format json': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'chartab -p 7 --format text': (0, '968e3afd23ad9cffd89ec5e5cbc9f91fb56279cb39b61032edfec61438d0ef6f'),
    'enumerate -p 7 --mode positive_then_negate --format text': (0, '6967b12c8e54cc354a5345bdf8415e870b2aa7f193892289ded2f01a864fcb99'),
    'enumerate -p 7 --mode exhaustive --format text': (0, '6967b12c8e54cc354a5345bdf8415e870b2aa7f193892289ded2f01a864fcb99'),
    'verify -p 7 --mode positive_then_negate --format text': (0, 'dbe9d547b440b0626361e5df2e852e06398ed72aaef8ec682e7d8e6f03b550eb'),
    'verify -p 7 --mode exhaustive --format text': (0, 'dbe9d547b440b0626361e5df2e852e06398ed72aaef8ec682e7d8e6f03b550eb'),
    'mu -p 7 --map=+1,+3,+5,+0,+2,+4,+6 --format text': (0, 'ae53e30a51bb5349a79b92ad536722909893ce2b3532acf23bef202f98657aff'),
    'mu -p 7 --map=-1,-3,-5,-0,-2,-4,-6 --format text': (0, '43a1b70fdfb30aa3bf0f4be81166696164678d85e956a4bc491e805ba1e5f4d7'),
    'mu -p 7 --map=+1,+5,+3,+0,+2,+4,+6 --format text': (0, 'f31e651ad8cfcaf89148351669f4c20b93deec7c19e83d61973357c5ada7aa06'),
    'check -p 7 --map=+1,+3,+5,+0,+2,+4,+6 --format text': (0, 'ee10ad9d9e708cfdb987912aa8cbd1f927cddff09e6715a28bc33fb457536fa1'),
    'check -p 7 --map=-1,-3,-5,-0,-2,-4,-6 --format text': (0, 'ee10ad9d9e708cfdb987912aa8cbd1f927cddff09e6715a28bc33fb457536fa1'),
    'check -p 7 --map=+1,+5,+3,+0,+2,+4,+6 --format text': (1, 'd2719d0258f1cdad87ed050ead1a6c45b9ebf515fb581b5b2c42bfda11a3d744'),
    'decompose -p 7 --map=+1,+3,+5,+0,+2,+4,+6 --format text': (0, '67e76efc9a6d2d8b241212d44ddb2254f6fe01d7b75a3982336367961fa125ac'),
    'decompose -p 7 --map=-1,-3,-5,-0,-2,-4,-6 --format text': (0, 'f6e2f140e3dec2b516ba0c61d9ffcaadd2cb799f5e999fa40e2d3d3b76ef5a67'),
    'decompose -p 7 --map=+1,+5,+3,+0,+2,+4,+6 --format text': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'chartab -p 7 --format json': (0, '3054ac088d075cac3fbcb9b48dda2b1779cb8fd2331f40904c5c98d21902b63a'),
    'enumerate -p 7 --mode positive_then_negate --format json': (0, '3ed96cd2bfc0883f50ebca158d4708c287bc7207bac4c6a9df69bdca48a0bf5a'),
    'enumerate -p 7 --mode exhaustive --format json': (0, '3ed96cd2bfc0883f50ebca158d4708c287bc7207bac4c6a9df69bdca48a0bf5a'),
    'verify -p 7 --mode positive_then_negate --format json': (0, '0d42625013a4825d6a1f0c6b4ff846940413d678011e3fd1d525a2b430e81a87'),
    'verify -p 7 --mode exhaustive --format json': (0, '0d42625013a4825d6a1f0c6b4ff846940413d678011e3fd1d525a2b430e81a87'),
    'mu -p 7 --map=+1,+3,+5,+0,+2,+4,+6 --format json': (0, '54b639e804e289c40ddf9b85f9c896e3d4b1de762ded905f0f9376b40eb40141'),
    'mu -p 7 --map=-1,-3,-5,-0,-2,-4,-6 --format json': (0, '227546dbfbd11bb8ca06b8b902ea416d686abb6cf2cace0f11d4247a65e0bfda'),
    'mu -p 7 --map=+1,+5,+3,+0,+2,+4,+6 --format json': (0, 'c5846ed32c08e62f9f9ccf4ae831599aa4c6b376514f30c364a6b50016032a7d'),
    'check -p 7 --map=+1,+3,+5,+0,+2,+4,+6 --format json': (0, 'ceb7753f6aea7519e2659a8cd9c4a53e2197e4c93d92b3167147377ec0f0e551'),
    'check -p 7 --map=-1,-3,-5,-0,-2,-4,-6 --format json': (0, '5f6b261812fe1d2600a5e50aac513914138f4e427a09a50b2af5ad607201c3bb'),
    'check -p 7 --map=+1,+5,+3,+0,+2,+4,+6 --format json': (1, 'd1b7f2e0f8fbb38464acf2736f3a79914f4c855438f0c290c27574198a923c82'),
    'decompose -p 7 --map=+1,+3,+5,+0,+2,+4,+6 --format json': (0, 'f3c73cbb6b72e263472ffb2df9d7118e75b45a5b23541027933693cf0ad5f476'),
    'decompose -p 7 --map=-1,-3,-5,-0,-2,-4,-6 --format json': (0, '023bebc077296591ec011f1bba4d8d511e966a6e2b4d2dc3599faeecd363f76d'),
    'decompose -p 7 --map=+1,+5,+3,+0,+2,+4,+6 --format json': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'chartab -p 23 --format text': (0, '2251dfea0f2a89a9e031874034112cf8a8833734e13d23b1acea4cd791f007ca'),
    'mu -p 23 --map=+1,+3,+5,+7,+9,+11,+13,+15,+17,+19,+21,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22 --format text': (0, '9a1ff35efc69d4f462650de425e2e706653948626e987becc48be6c5762241e2'),
    'mu -p 23 --map=-1,-3,-5,-7,-9,-11,-13,-15,-17,-19,-21,-0,-2,-4,-6,-8,-10,-12,-14,-16,-18,-20,-22 --format text': (0, 'dbefd19c98d551da46a548f7097d65ec006076444b122b1d954c91dcd03a4435'),
    'mu -p 23 --map=+1,+5,+3,+7,+9,+11,+13,+15,+17,+19,+21,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22 --format text': (0, 'f7ab272fb0573142e3ce795452d6f91df15a26f51fa8913a81d647d753c33720'),
    'mu -p 23 --map=-14,-17,+1,+8,+5,-6,+19,+10,-16,-20,-7,-4,+3,-15,+21,-11,-12,+13,+22,+18,-0,+2,+9 --format text': (0, 'f2e693a0e325f8860322684bc8c1f4531b3e986e29189d7aa3a30e2b30ccddd1'),
    'check -p 23 --map=+1,+3,+5,+7,+9,+11,+13,+15,+17,+19,+21,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22 --format text': (0, 'ee10ad9d9e708cfdb987912aa8cbd1f927cddff09e6715a28bc33fb457536fa1'),
    'check -p 23 --map=-1,-3,-5,-7,-9,-11,-13,-15,-17,-19,-21,-0,-2,-4,-6,-8,-10,-12,-14,-16,-18,-20,-22 --format text': (0, 'ee10ad9d9e708cfdb987912aa8cbd1f927cddff09e6715a28bc33fb457536fa1'),
    'check -p 23 --map=+1,+5,+3,+7,+9,+11,+13,+15,+17,+19,+21,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22 --format text': (1, 'c9c199f2f8ecbbda8c1dc9c89b097f57bc2e798aad08ddd554e773b794d5f533'),
    'check -p 23 --map=-14,-17,+1,+8,+5,-6,+19,+10,-16,-20,-7,-4,+3,-15,+21,-11,-12,+13,+22,+18,-0,+2,+9 --format text': (1, 'a852ddf9771d272a29cfafb17848e02f493cc8c91c4595f4eab54ca0e1a95ce3'),
    'decompose -p 23 --map=+1,+3,+5,+7,+9,+11,+13,+15,+17,+19,+21,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22 --format text': (0, '67e76efc9a6d2d8b241212d44ddb2254f6fe01d7b75a3982336367961fa125ac'),
    'decompose -p 23 --map=-1,-3,-5,-7,-9,-11,-13,-15,-17,-19,-21,-0,-2,-4,-6,-8,-10,-12,-14,-16,-18,-20,-22 --format text': (0, 'f6e2f140e3dec2b516ba0c61d9ffcaadd2cb799f5e999fa40e2d3d3b76ef5a67'),
    'decompose -p 23 --map=+1,+5,+3,+7,+9,+11,+13,+15,+17,+19,+21,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22 --format text': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'decompose -p 23 --map=-14,-17,+1,+8,+5,-6,+19,+10,-16,-20,-7,-4,+3,-15,+21,-11,-12,+13,+22,+18,-0,+2,+9 --format text': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'chartab -p 23 --format json': (0, '0bdb6d20510315c2576e6491f5f2bf2bdf9d21944444459fb7f4f2daacd2e1ed'),
    'mu -p 23 --map=+1,+3,+5,+7,+9,+11,+13,+15,+17,+19,+21,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22 --format json': (0, '4c0994755faec527120d1844376f44ad20ba3be10a15342479e25022e919faa2'),
    'mu -p 23 --map=-1,-3,-5,-7,-9,-11,-13,-15,-17,-19,-21,-0,-2,-4,-6,-8,-10,-12,-14,-16,-18,-20,-22 --format json': (0, '2356c585ba5757c8f56df78de0a59c0acb3376a2937af811984a9480989a4f9f'),
    'mu -p 23 --map=+1,+5,+3,+7,+9,+11,+13,+15,+17,+19,+21,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22 --format json': (0, '7b057b8589f7bf7279adb1c852b8499b99a5603aa68712de15d0725c43feba02'),
    'mu -p 23 --map=-14,-17,+1,+8,+5,-6,+19,+10,-16,-20,-7,-4,+3,-15,+21,-11,-12,+13,+22,+18,-0,+2,+9 --format json': (0, '4acf5868b1dd4a00ffae199b30bca4e84dc3a77a404bd488b8c37042840d9fee'),
    'check -p 23 --map=+1,+3,+5,+7,+9,+11,+13,+15,+17,+19,+21,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22 --format json': (0, '6b4f089110efaed7ee0f22f41540e806171938b52e118c654a9f20812a250e0e'),
    'check -p 23 --map=-1,-3,-5,-7,-9,-11,-13,-15,-17,-19,-21,-0,-2,-4,-6,-8,-10,-12,-14,-16,-18,-20,-22 --format json': (0, '81ec5fffac5a9f5ed2feec843224a9f4e623f209fde7e9287ce929cd60754376'),
    'check -p 23 --map=+1,+5,+3,+7,+9,+11,+13,+15,+17,+19,+21,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22 --format json': (1, '91b854decc74ce34dd8c2f066ce2d4c7daa277964a6b1eeb7622c239156aedea'),
    'check -p 23 --map=-14,-17,+1,+8,+5,-6,+19,+10,-16,-20,-7,-4,+3,-15,+21,-11,-12,+13,+22,+18,-0,+2,+9 --format json': (1, 'f8382207d84e5e459bfa89d7db40ae4a7be8926a3faca1f4c6b029e27087949c'),
    'decompose -p 23 --map=+1,+3,+5,+7,+9,+11,+13,+15,+17,+19,+21,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22 --format json': (0, 'd2fcd82bd3c43f55fefe004fa7b19828c06c1edbf5c177bdd4d36181d087edc3'),
    'decompose -p 23 --map=-1,-3,-5,-7,-9,-11,-13,-15,-17,-19,-21,-0,-2,-4,-6,-8,-10,-12,-14,-16,-18,-20,-22 --format json': (0, '34a7b8d915b7c02cd9594766cd98bc40fc2518a8dbc90df5572915d612a38269'),
    'decompose -p 23 --map=+1,+5,+3,+7,+9,+11,+13,+15,+17,+19,+21,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22 --format json': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'decompose -p 23 --map=-14,-17,+1,+8,+5,-6,+19,+10,-16,-20,-7,-4,+3,-15,+21,-11,-12,+13,+22,+18,-0,+2,+9 --format json': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'chartab -p 53 --format text': (0, '6fee6ec75f2d0bd5922d4fd8eb92c4c0c0b4980df394506ba55afe52865479cf'),
    'mu -p 53 --map=+1,+3,+5,+7,+9,+11,+13,+15,+17,+19,+21,+23,+25,+27,+29,+31,+33,+35,+37,+39,+41,+43,+45,+47,+49,+51,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22,+24,+26,+28,+30,+32,+34,+36,+38,+40,+42,+44,+46,+48,+50,+52 --format text': (0, '9db3991bdbdaf0b241b006ef9938b660c6c36a4e6b933f05628c64be6d17f357'),
    'mu -p 53 --map=-1,-3,-5,-7,-9,-11,-13,-15,-17,-19,-21,-23,-25,-27,-29,-31,-33,-35,-37,-39,-41,-43,-45,-47,-49,-51,-0,-2,-4,-6,-8,-10,-12,-14,-16,-18,-20,-22,-24,-26,-28,-30,-32,-34,-36,-38,-40,-42,-44,-46,-48,-50,-52 --format text': (0, '8bc1fd8ee8010b5cfe1d8ac0594b7706346febf02349f7de8cfec8f2cdcc7e78'),
    'mu -p 53 --map=+1,+5,+3,+7,+9,+11,+13,+15,+17,+19,+21,+23,+25,+27,+29,+31,+33,+35,+37,+39,+41,+43,+45,+47,+49,+51,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22,+24,+26,+28,+30,+32,+34,+36,+38,+40,+42,+44,+46,+48,+50,+52 --format text': (0, '338e67ea3182a1e78761f4025aba66a8963c64b8ad5a425b436b8f06dfaffee5'),
    'mu -p 53 --map=+9,+19,+5,+21,+49,+0,-51,-15,-34,-43,+26,+47,-17,-18,+46,+41,+27,-38,-52,+42,-12,+25,-35,-20,+24,-37,+11,-31,+4,-7,+6,-28,-14,+44,-36,+40,-3,+16,-8,+22,-10,+2,+1,-50,-23,-33,+48,+30,+45,-32,+29,+13,-39 --format text': (0, 'e72392e35fbf3d7b1c0dec77101031cf3a2abc76fd2112a4f2e2072babd6ff26'),
    'check -p 53 --map=+1,+3,+5,+7,+9,+11,+13,+15,+17,+19,+21,+23,+25,+27,+29,+31,+33,+35,+37,+39,+41,+43,+45,+47,+49,+51,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22,+24,+26,+28,+30,+32,+34,+36,+38,+40,+42,+44,+46,+48,+50,+52 --format text': (0, 'ee10ad9d9e708cfdb987912aa8cbd1f927cddff09e6715a28bc33fb457536fa1'),
    'check -p 53 --map=-1,-3,-5,-7,-9,-11,-13,-15,-17,-19,-21,-23,-25,-27,-29,-31,-33,-35,-37,-39,-41,-43,-45,-47,-49,-51,-0,-2,-4,-6,-8,-10,-12,-14,-16,-18,-20,-22,-24,-26,-28,-30,-32,-34,-36,-38,-40,-42,-44,-46,-48,-50,-52 --format text': (0, 'ee10ad9d9e708cfdb987912aa8cbd1f927cddff09e6715a28bc33fb457536fa1'),
    'check -p 53 --map=+1,+5,+3,+7,+9,+11,+13,+15,+17,+19,+21,+23,+25,+27,+29,+31,+33,+35,+37,+39,+41,+43,+45,+47,+49,+51,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22,+24,+26,+28,+30,+32,+34,+36,+38,+40,+42,+44,+46,+48,+50,+52 --format text': (1, 'b1f2e047fb3fd045127be6814728d2df92b22f7d2c769d2c8767d1ab47ceca5e'),
    'check -p 53 --map=+9,+19,+5,+21,+49,+0,-51,-15,-34,-43,+26,+47,-17,-18,+46,+41,+27,-38,-52,+42,-12,+25,-35,-20,+24,-37,+11,-31,+4,-7,+6,-28,-14,+44,-36,+40,-3,+16,-8,+22,-10,+2,+1,-50,-23,-33,+48,+30,+45,-32,+29,+13,-39 --format text': (1, 'a852ddf9771d272a29cfafb17848e02f493cc8c91c4595f4eab54ca0e1a95ce3'),
    'decompose -p 53 --map=+1,+3,+5,+7,+9,+11,+13,+15,+17,+19,+21,+23,+25,+27,+29,+31,+33,+35,+37,+39,+41,+43,+45,+47,+49,+51,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22,+24,+26,+28,+30,+32,+34,+36,+38,+40,+42,+44,+46,+48,+50,+52 --format text': (0, '67e76efc9a6d2d8b241212d44ddb2254f6fe01d7b75a3982336367961fa125ac'),
    'decompose -p 53 --map=-1,-3,-5,-7,-9,-11,-13,-15,-17,-19,-21,-23,-25,-27,-29,-31,-33,-35,-37,-39,-41,-43,-45,-47,-49,-51,-0,-2,-4,-6,-8,-10,-12,-14,-16,-18,-20,-22,-24,-26,-28,-30,-32,-34,-36,-38,-40,-42,-44,-46,-48,-50,-52 --format text': (0, 'f6e2f140e3dec2b516ba0c61d9ffcaadd2cb799f5e999fa40e2d3d3b76ef5a67'),
    'decompose -p 53 --map=+1,+5,+3,+7,+9,+11,+13,+15,+17,+19,+21,+23,+25,+27,+29,+31,+33,+35,+37,+39,+41,+43,+45,+47,+49,+51,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22,+24,+26,+28,+30,+32,+34,+36,+38,+40,+42,+44,+46,+48,+50,+52 --format text': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'decompose -p 53 --map=+9,+19,+5,+21,+49,+0,-51,-15,-34,-43,+26,+47,-17,-18,+46,+41,+27,-38,-52,+42,-12,+25,-35,-20,+24,-37,+11,-31,+4,-7,+6,-28,-14,+44,-36,+40,-3,+16,-8,+22,-10,+2,+1,-50,-23,-33,+48,+30,+45,-32,+29,+13,-39 --format text': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'chartab -p 53 --format json': (0, '1dc375407cb8f5a417e6aedc53758d7d79cad825b2c05ffac915c86a51656b37'),
    'mu -p 53 --map=+1,+3,+5,+7,+9,+11,+13,+15,+17,+19,+21,+23,+25,+27,+29,+31,+33,+35,+37,+39,+41,+43,+45,+47,+49,+51,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22,+24,+26,+28,+30,+32,+34,+36,+38,+40,+42,+44,+46,+48,+50,+52 --format json': (0, 'fe2a399c97d95be688465cb5966c1c3e89637d536c2bdea7a5fdc29d52e72701'),
    'mu -p 53 --map=-1,-3,-5,-7,-9,-11,-13,-15,-17,-19,-21,-23,-25,-27,-29,-31,-33,-35,-37,-39,-41,-43,-45,-47,-49,-51,-0,-2,-4,-6,-8,-10,-12,-14,-16,-18,-20,-22,-24,-26,-28,-30,-32,-34,-36,-38,-40,-42,-44,-46,-48,-50,-52 --format json': (0, '8e8fb4f3357e5d56671108c9182da20102580cf3bd9f28a019ce2d34d68a6086'),
    'mu -p 53 --map=+1,+5,+3,+7,+9,+11,+13,+15,+17,+19,+21,+23,+25,+27,+29,+31,+33,+35,+37,+39,+41,+43,+45,+47,+49,+51,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22,+24,+26,+28,+30,+32,+34,+36,+38,+40,+42,+44,+46,+48,+50,+52 --format json': (0, '618155c7666b449c1a634752e41bafe777ce4beca87cbf09932bf0c18c2fc415'),
    'mu -p 53 --map=+9,+19,+5,+21,+49,+0,-51,-15,-34,-43,+26,+47,-17,-18,+46,+41,+27,-38,-52,+42,-12,+25,-35,-20,+24,-37,+11,-31,+4,-7,+6,-28,-14,+44,-36,+40,-3,+16,-8,+22,-10,+2,+1,-50,-23,-33,+48,+30,+45,-32,+29,+13,-39 --format json': (0, '805b88ccf80d09a371318f6b41fb26758170f637ad127ed5fb694e29aa44f157'),
    'check -p 53 --map=+1,+3,+5,+7,+9,+11,+13,+15,+17,+19,+21,+23,+25,+27,+29,+31,+33,+35,+37,+39,+41,+43,+45,+47,+49,+51,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22,+24,+26,+28,+30,+32,+34,+36,+38,+40,+42,+44,+46,+48,+50,+52 --format json': (0, '99b78754fe3f95e31e3de5dcb29ec4aa8bf806e06ffa4f5f3c5e749bd9397c03'),
    'check -p 53 --map=-1,-3,-5,-7,-9,-11,-13,-15,-17,-19,-21,-23,-25,-27,-29,-31,-33,-35,-37,-39,-41,-43,-45,-47,-49,-51,-0,-2,-4,-6,-8,-10,-12,-14,-16,-18,-20,-22,-24,-26,-28,-30,-32,-34,-36,-38,-40,-42,-44,-46,-48,-50,-52 --format json': (0, '9f2dbde1911b30e4c4a144dabeddf93db8c315b4ff82db626f6f041b00dc49cf'),
    'check -p 53 --map=+1,+5,+3,+7,+9,+11,+13,+15,+17,+19,+21,+23,+25,+27,+29,+31,+33,+35,+37,+39,+41,+43,+45,+47,+49,+51,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22,+24,+26,+28,+30,+32,+34,+36,+38,+40,+42,+44,+46,+48,+50,+52 --format json': (1, '3e70657013ecd87d258334273e37b1e69e78bf1cac53f4a96f7eb6180fb33fcd'),
    'check -p 53 --map=+9,+19,+5,+21,+49,+0,-51,-15,-34,-43,+26,+47,-17,-18,+46,+41,+27,-38,-52,+42,-12,+25,-35,-20,+24,-37,+11,-31,+4,-7,+6,-28,-14,+44,-36,+40,-3,+16,-8,+22,-10,+2,+1,-50,-23,-33,+48,+30,+45,-32,+29,+13,-39 --format json': (1, 'fe386dfd77be324666078b304cd1fd699ee080b6b9710337ab21962e5a58da01'),
    'decompose -p 53 --map=+1,+3,+5,+7,+9,+11,+13,+15,+17,+19,+21,+23,+25,+27,+29,+31,+33,+35,+37,+39,+41,+43,+45,+47,+49,+51,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22,+24,+26,+28,+30,+32,+34,+36,+38,+40,+42,+44,+46,+48,+50,+52 --format json': (0, 'c6603af0e765637e7f32dc9866362e5fd9a870c4d048636921cf29b4a82fc8ae'),
    'decompose -p 53 --map=-1,-3,-5,-7,-9,-11,-13,-15,-17,-19,-21,-23,-25,-27,-29,-31,-33,-35,-37,-39,-41,-43,-45,-47,-49,-51,-0,-2,-4,-6,-8,-10,-12,-14,-16,-18,-20,-22,-24,-26,-28,-30,-32,-34,-36,-38,-40,-42,-44,-46,-48,-50,-52 --format json': (0, '1c9a9387ad87d530e812613d9eec4c0b79601c31665fae279cf974f27c7fc8c5'),
    'decompose -p 53 --map=+1,+5,+3,+7,+9,+11,+13,+15,+17,+19,+21,+23,+25,+27,+29,+31,+33,+35,+37,+39,+41,+43,+45,+47,+49,+51,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22,+24,+26,+28,+30,+32,+34,+36,+38,+40,+42,+44,+46,+48,+50,+52 --format json': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'decompose -p 53 --map=+9,+19,+5,+21,+49,+0,-51,-15,-34,-43,+26,+47,-17,-18,+46,+41,+27,-38,-52,+42,-12,+25,-35,-20,+24,-37,+11,-31,+4,-7,+6,-28,-14,+44,-36,+40,-3,+16,-8,+22,-10,+2,+1,-50,-23,-33,+48,+30,+45,-32,+29,+13,-39 --format json': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'enumerate -p 13 --mode positive_then_negate --format text': (0, '76561969c8ce802c80d0a6f7686e2a80b3d406f51d2c34e7e9834ca90364edb3'),
    'enumerate -p 13 --mode exhaustive --format text': (0, '76561969c8ce802c80d0a6f7686e2a80b3d406f51d2c34e7e9834ca90364edb3'),
    'verify -p 13 --mode positive_then_negate --format text': (0, '9b0221627db546331fa38281616866cf05837d91663faa29859bd3a06620f331'),
    'verify -p 13 --mode exhaustive --format text': (0, '9b0221627db546331fa38281616866cf05837d91663faa29859bd3a06620f331'),
    'enumerate -p 13 --mode positive_then_negate --format json': (0, '375839e0586cb6be0e71ffce1d3e5118fdce0707d77e063456434bd086742bfd'),
    'enumerate -p 13 --mode exhaustive --format json': (0, '375839e0586cb6be0e71ffce1d3e5118fdce0707d77e063456434bd086742bfd'),
    'verify -p 13 --mode positive_then_negate --format json': (0, 'c4ff86a5cc017686f1771fd9d4c272ccea0112b6e2a2539b3f1fe64bc9c726e3'),
    'verify -p 13 --mode exhaustive --format json': (0, 'c4ff86a5cc017686f1771fd9d4c272ccea0112b6e2a2539b3f1fe64bc9c726e3'),
    'verify -p 53 --mode positive_then_negate --format text': (0, 'd0e0de82fea0b128f17822d53505472a94c779805a177d2b6d97663d3be30c39'),
    'verify -p 53 --mode exhaustive --format text': (0, 'd0e0de82fea0b128f17822d53505472a94c779805a177d2b6d97663d3be30c39'),
    'verify -p 53 --mode positive_then_negate --format json': (0, 'f998a0cbd349158391f8900b9d60a4998187444fe0d7cc5fcc4470462288aef2'),
    'verify -p 53 --mode exhaustive --format json': (0, 'f998a0cbd349158391f8900b9d60a4998187444fe0d7cc5fcc4470462288aef2'),
    'enumerate -p 53 --format text': (0, '7bee6d48ad237883af80532ad99049175f38193eb9d8a202e98ffb0e1891d77f'),
    'verify -p 101 --format text': (0, '870b6d67f2baa3f8afb16ac21f2e14d33ddec3538ac3a2f5ee0d888de31fdf60'),
    'enumerate -p 101 --format text': (0, 'ecd4cf6077563636cd23af15db707a3fb3bff3ab61b211d214bb432339a2dfd4'),
    'enumerate -p 53 --format json': (0, 'c7405b1e3f195b63221f7a4f120272f9a0f5ff0ac7edb4f93bd2a6214bce06dc'),
    'verify -p 101 --format json': (0, '6705ada6c0dd2092c35824706466a1bdd5efdc08286ab5c2a6c811ef2bf3ceaa'),
    'enumerate -p 101 --format json': (0, '94fa44db1ddd645b3add17458dbd353707604ed28d1efc49bfbe9b922fe36a26'),
    'check -p 101 --map=+1,+3,+5,+7,+9,+11,+13,+15,+17,+19,+21,+23,+25,+27,+29,+31,+33,+35,+37,+39,+41,+43,+45,+47,+49,+51,+53,+55,+57,+59,+61,+63,+65,+67,+69,+71,+73,+75,+77,+79,+81,+83,+85,+87,+89,+91,+93,+95,+97,+99,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22,+24,+26,+28,+30,+32,+34,+36,+38,+40,+42,+44,+46,+48,+50,+52,+54,+56,+58,+60,+62,+64,+66,+68,+70,+72,+74,+76,+78,+80,+82,+84,+86,+88,+90,+92,+94,+96,+98,+100 --format text': (0, 'ee10ad9d9e708cfdb987912aa8cbd1f927cddff09e6715a28bc33fb457536fa1'),
    'check -p 101 --map=-1,-3,-5,-7,-9,-11,-13,-15,-17,-19,-21,-23,-25,-27,-29,-31,-33,-35,-37,-39,-41,-43,-45,-47,-49,-51,-53,-55,-57,-59,-61,-63,-65,-67,-69,-71,-73,-75,-77,-79,-81,-83,-85,-87,-89,-91,-93,-95,-97,-99,-0,-2,-4,-6,-8,-10,-12,-14,-16,-18,-20,-22,-24,-26,-28,-30,-32,-34,-36,-38,-40,-42,-44,-46,-48,-50,-52,-54,-56,-58,-60,-62,-64,-66,-68,-70,-72,-74,-76,-78,-80,-82,-84,-86,-88,-90,-92,-94,-96,-98,-100 --format text': (0, 'ee10ad9d9e708cfdb987912aa8cbd1f927cddff09e6715a28bc33fb457536fa1'),
    'check -p 101 --map=+1,+5,+3,+7,+9,+11,+13,+15,+17,+19,+21,+23,+25,+27,+29,+31,+33,+35,+37,+39,+41,+43,+45,+47,+49,+51,+53,+55,+57,+59,+61,+63,+65,+67,+69,+71,+73,+75,+77,+79,+81,+83,+85,+87,+89,+91,+93,+95,+97,+99,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22,+24,+26,+28,+30,+32,+34,+36,+38,+40,+42,+44,+46,+48,+50,+52,+54,+56,+58,+60,+62,+64,+66,+68,+70,+72,+74,+76,+78,+80,+82,+84,+86,+88,+90,+92,+94,+96,+98,+100 --format text': (1, '0741c719142b95a75ddd7361466bb6d2a4760dc17be28efdd83f0f35725e72f0'),
    'check -p 101 --map=+52,+90,-35,+3,+72,+44,-10,-91,-7,+98,+83,-49,-73,+78,+57,-39,-19,+97,-37,+66,-43,-5,+15,-18,+81,-33,+40,+21,-12,+31,+75,+53,-67,-80,+61,-2,+94,-89,-16,+48,-100,-23,+1,+22,-95,-34,-13,-29,-0,+70,+88,+47,+58,+4,+65,+93,-76,+50,-25,+17,-79,+71,-63,+86,+14,-87,-38,-96,-55,-8,+26,-54,+51,-30,-41,+60,+82,+46,-68,-85,-11,+20,-99,+32,+9,-56,+42,+92,-62,-36,-28,+77,-27,+64,+84,-6,+59,+45,-69,-24,+74 --format text': (1, 'a852ddf9771d272a29cfafb17848e02f493cc8c91c4595f4eab54ca0e1a95ce3'),
    'check -p 101 --map=+1,+3,+5,+7,+9,+11,+13,+15,+17,+19,+21,+23,+25,+27,+29,+31,+33,+35,+37,+39,+41,+43,+45,+47,+49,+51,+53,+55,+57,+59,+61,+63,+65,+67,+69,+71,+73,+75,+77,+79,+81,+83,+85,+87,+89,+91,+93,+95,+97,+99,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22,+24,+26,+28,+30,+32,+34,+36,+38,+40,+42,+44,+46,+48,+50,+52,+54,+56,+58,+60,+62,+64,+66,+68,+70,+72,+74,+76,+78,+80,+82,+84,+86,+88,+90,+92,+94,+96,+98,+100 --format json': (0, 'a960164fd025931d48e8ef1eaeea89be4540a63a234ba15e46403499f686e735'),
    'check -p 101 --map=-1,-3,-5,-7,-9,-11,-13,-15,-17,-19,-21,-23,-25,-27,-29,-31,-33,-35,-37,-39,-41,-43,-45,-47,-49,-51,-53,-55,-57,-59,-61,-63,-65,-67,-69,-71,-73,-75,-77,-79,-81,-83,-85,-87,-89,-91,-93,-95,-97,-99,-0,-2,-4,-6,-8,-10,-12,-14,-16,-18,-20,-22,-24,-26,-28,-30,-32,-34,-36,-38,-40,-42,-44,-46,-48,-50,-52,-54,-56,-58,-60,-62,-64,-66,-68,-70,-72,-74,-76,-78,-80,-82,-84,-86,-88,-90,-92,-94,-96,-98,-100 --format json': (0, '586bda34b60fbd7c4dec67a40f22be4465d770fa46373d0a6ed370a31112bcfd'),
    'check -p 101 --map=+1,+5,+3,+7,+9,+11,+13,+15,+17,+19,+21,+23,+25,+27,+29,+31,+33,+35,+37,+39,+41,+43,+45,+47,+49,+51,+53,+55,+57,+59,+61,+63,+65,+67,+69,+71,+73,+75,+77,+79,+81,+83,+85,+87,+89,+91,+93,+95,+97,+99,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22,+24,+26,+28,+30,+32,+34,+36,+38,+40,+42,+44,+46,+48,+50,+52,+54,+56,+58,+60,+62,+64,+66,+68,+70,+72,+74,+76,+78,+80,+82,+84,+86,+88,+90,+92,+94,+96,+98,+100 --format json': (1, '8013b7d0436d31b86967c2b580d0c7ccdec67d564a934038c8339f6065010809'),
    'check -p 101 --map=+52,+90,-35,+3,+72,+44,-10,-91,-7,+98,+83,-49,-73,+78,+57,-39,-19,+97,-37,+66,-43,-5,+15,-18,+81,-33,+40,+21,-12,+31,+75,+53,-67,-80,+61,-2,+94,-89,-16,+48,-100,-23,+1,+22,-95,-34,-13,-29,-0,+70,+88,+47,+58,+4,+65,+93,-76,+50,-25,+17,-79,+71,-63,+86,+14,-87,-38,-96,-55,-8,+26,-54,+51,-30,-41,+60,+82,+46,-68,-85,-11,+20,-99,+32,+9,-56,+42,+92,-62,-36,-28,+77,-27,+64,+84,-6,+59,+45,-69,-24,+74 --format json': (1, 'def1f34d14fe1c205e2ac885ec4908d00b7d4e9f9b40c6320cd2ab43e30f125a'),
    'chartab -p 101 --format text': (0, 'a599e2b3d8240b40dec2f6169d1be4ed7f167a6e1c4758a05cbc0aa6a7a845eb'),
    'mu -p 101 --map=+1,+3,+5,+7,+9,+11,+13,+15,+17,+19,+21,+23,+25,+27,+29,+31,+33,+35,+37,+39,+41,+43,+45,+47,+49,+51,+53,+55,+57,+59,+61,+63,+65,+67,+69,+71,+73,+75,+77,+79,+81,+83,+85,+87,+89,+91,+93,+95,+97,+99,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22,+24,+26,+28,+30,+32,+34,+36,+38,+40,+42,+44,+46,+48,+50,+52,+54,+56,+58,+60,+62,+64,+66,+68,+70,+72,+74,+76,+78,+80,+82,+84,+86,+88,+90,+92,+94,+96,+98,+100 --format text': (0, '13a97143aac9b191190ec2b6b0a879eb6704954f77992f2517b81f9a2ee64904'),
    'mu -p 101 --map=+52,+90,-35,+3,+72,+44,-10,-91,-7,+98,+83,-49,-73,+78,+57,-39,-19,+97,-37,+66,-43,-5,+15,-18,+81,-33,+40,+21,-12,+31,+75,+53,-67,-80,+61,-2,+94,-89,-16,+48,-100,-23,+1,+22,-95,-34,-13,-29,-0,+70,+88,+47,+58,+4,+65,+93,-76,+50,-25,+17,-79,+71,-63,+86,+14,-87,-38,-96,-55,-8,+26,-54,+51,-30,-41,+60,+82,+46,-68,-85,-11,+20,-99,+32,+9,-56,+42,+92,-62,-36,-28,+77,-27,+64,+84,-6,+59,+45,-69,-24,+74 --format text': (0, '18e17834a1fdb11a0e1863af00a04af38d6221532153bd99223eda73b1ff5ac5'),
    'decompose -p 101 --map=+1,+3,+5,+7,+9,+11,+13,+15,+17,+19,+21,+23,+25,+27,+29,+31,+33,+35,+37,+39,+41,+43,+45,+47,+49,+51,+53,+55,+57,+59,+61,+63,+65,+67,+69,+71,+73,+75,+77,+79,+81,+83,+85,+87,+89,+91,+93,+95,+97,+99,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22,+24,+26,+28,+30,+32,+34,+36,+38,+40,+42,+44,+46,+48,+50,+52,+54,+56,+58,+60,+62,+64,+66,+68,+70,+72,+74,+76,+78,+80,+82,+84,+86,+88,+90,+92,+94,+96,+98,+100 --format text': (0, '67e76efc9a6d2d8b241212d44ddb2254f6fe01d7b75a3982336367961fa125ac'),
    'chartab -p 101 --format json': (0, '386cfe03f04a3eb48b50702b771feee144498ada1faa6ae46fc4df6363750823'),
    'mu -p 101 --map=+1,+3,+5,+7,+9,+11,+13,+15,+17,+19,+21,+23,+25,+27,+29,+31,+33,+35,+37,+39,+41,+43,+45,+47,+49,+51,+53,+55,+57,+59,+61,+63,+65,+67,+69,+71,+73,+75,+77,+79,+81,+83,+85,+87,+89,+91,+93,+95,+97,+99,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22,+24,+26,+28,+30,+32,+34,+36,+38,+40,+42,+44,+46,+48,+50,+52,+54,+56,+58,+60,+62,+64,+66,+68,+70,+72,+74,+76,+78,+80,+82,+84,+86,+88,+90,+92,+94,+96,+98,+100 --format json': (0, '507d2f2c9ae93f86299a61e199ac72487ae2f74dc90fc5c9ba3e036b4b170068'),
    'mu -p 101 --map=+52,+90,-35,+3,+72,+44,-10,-91,-7,+98,+83,-49,-73,+78,+57,-39,-19,+97,-37,+66,-43,-5,+15,-18,+81,-33,+40,+21,-12,+31,+75,+53,-67,-80,+61,-2,+94,-89,-16,+48,-100,-23,+1,+22,-95,-34,-13,-29,-0,+70,+88,+47,+58,+4,+65,+93,-76,+50,-25,+17,-79,+71,-63,+86,+14,-87,-38,-96,-55,-8,+26,-54,+51,-30,-41,+60,+82,+46,-68,-85,-11,+20,-99,+32,+9,-56,+42,+92,-62,-36,-28,+77,-27,+64,+84,-6,+59,+45,-69,-24,+74 --format json': (0, 'ea4765ddd9e03406e32abcbfeb3ed39eb6a2b2a64c25507b52a0062dd8c4cffb'),
    'decompose -p 101 --map=+1,+3,+5,+7,+9,+11,+13,+15,+17,+19,+21,+23,+25,+27,+29,+31,+33,+35,+37,+39,+41,+43,+45,+47,+49,+51,+53,+55,+57,+59,+61,+63,+65,+67,+69,+71,+73,+75,+77,+79,+81,+83,+85,+87,+89,+91,+93,+95,+97,+99,+0,+2,+4,+6,+8,+10,+12,+14,+16,+18,+20,+22,+24,+26,+28,+30,+32,+34,+36,+38,+40,+42,+44,+46,+48,+50,+52,+54,+56,+58,+60,+62,+64,+66,+68,+70,+72,+74,+76,+78,+80,+82,+84,+86,+88,+90,+92,+94,+96,+98,+100 --format json': (0, '4e7f3e6b39c08b2ecf71dea82cf48138f74d817073e4cabf4fc21bf72562d5a6'),
}

CASES = list(_cases())


def test_golden_covers_every_case():
    assert set(GOLDEN) == {" ".join(argv) for argv in CASES}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_golden_stdout(argv):
    assert _run(argv) == GOLDEN[" ".join(argv)]


if __name__ == "__main__":
    print("GOLDEN = {")
    for argv in CASES:
        print(f"    {' '.join(argv)!r}: {_run(argv)!r},")
    print("}")
