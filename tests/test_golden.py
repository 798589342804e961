"""Golden bytes: every subcommand's exit code, stdout and stderr, pinned.

Each case runs one argv in-process and compares the sha256 of its stdout
and of its stderr, and its exit code, with values captured before the
rendering code moved into ``towerbound.report``.  The cases cover every
subcommand in text and in ``--json``: each example reproduced and
certified, three constructions and a failed validation, the three
factorization verdicts, the three splitting types, and the inert-prime
search with both kinds of exhaustion.
"""

import hashlib
import shlex

import pytest

#: example 3's six published factors of 43, whose product is a unit times 43
SIX_FACTORS = " ".join(
    f"--factor '{f}'"
    for f in (
        "ζ₇⁵ + 2ζ₇³ + ζ₇² + 1",
        "ζ₇⁵ + ζ₇⁴ + 2ζ₇² + ζ₇",
        "2ζ₇⁵ + ζ₇⁴ + 2ζ₇³ + ζ₇² + 2ζ₇ + 1",
        "-2ζ₇⁵ - ζ₇⁴ - ζ₇³ - 2ζ₇² - 2ζ₇ - 1",
        "2ζ₇⁴ + ζ₇³ + ζ₇² + ζ₇",
        "ζ₇⁵ + ζ₇⁴ + ζ₇³ + 2ζ₇²",
    )
)

#: (argv, exit code, sha256 of stdout, sha256 of stderr)
GOLDEN = [
    (
        'reproduce example1',
        0,
        "3db720114f2461303abe6b8dc3a97992849a1ad26122540928ab4ab6db94bac5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'reproduce example1 --json',
        0,
        "9fb3898999e142ae7eaeaa6ea5a53382a348c634f6478d9bcf2b1473c86672bb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'reproduce example2',
        0,
        "d4e5c64f4c299319db6be62093cc4673c05309b96ec9048e4c70791f10f216f8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'reproduce example2 --json',
        0,
        "a5e65c76c67c85339b4fc184da813d2aec5edfb0c81c4131eae085df606cfff0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'reproduce example3',
        0,
        "730e0dd6f6f2fdd2c0219fdf8c5ccda0c9472213d953eec5413f1d24b08de5da",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'reproduce example3 --json',
        0,
        "11abeb686440b481016e01edae8ac44ba07e7b37a533d2ff15039c8a6662a8c1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'reproduce all',
        0,
        "9113c829d32e85d698c1e2434368251c78b9581258b7b87c1237425edd57dfab",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'reproduce all --json',
        0,
        "2a3ae011df70753a3e24d3eb0b3c923a49ed23561927e949fbf6738cb16183bf",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'certificate example1',
        0,
        "58518d76e957e853a6746df3e267ded5946aa2278af1b643ee751c156fd9216a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'certificate example1 --json',
        0,
        "01e4c05bce9f4ef95818cefb1dbe79599c563b4779123cf34496f19746828f3b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'certificate example2',
        0,
        "a8024bddc7bb3002d63ccace0399b89be6ed573d50a3c3343bbdc744ffb81f3f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'certificate example2 --json',
        0,
        "05f2f8a4bfccbe974ae293cc400000417afd91e201e6576cc11d65d3fc626c25",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'certificate example3',
        0,
        "19418f6c7bd7e280ac8617d98d79cecea29f5a41be72b47820b83683f1ef467c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'certificate example3 --json',
        0,
        "aa9e0e9c55bf2d8d4178c773eef4a188986cb88c2477eb384594f4ead8279510",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'certificate example1 --n-max 1000',
        0,
        "786ac75a3f62afdbb260fc1dbbc52e17dd66605b5973764a80a5f32e66956e41",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'certificate example1 --n-max 1000 --json',
        0,
        "8cd217de8f5e5e8c4baccbf63b96adbea000e67daff0b4e9f76ff60bc7c56308",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    # Captured before certificate cells were rendered from running decimal
    # powers: example3's cells reach 847 digits, and example2's two class
    # columns are 0 at every layer (JSON ints, never strings).
    (
        'certificate example3 --n-max 1000',
        0,
        "bcde263a733c4b88f9229f6bde55c01581edfa4f0eaa1ede8546efeaf9aac82a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'certificate example3 --n-max 1000 --json',
        0,
        "deabce0e29d4dab5b5c6651f9f73ccc66fb5f10901fd16f38637b08472222924",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'certificate example2 --n-max 1000 --json',
        0,
        "e3a8fa70433c3ddf68d26cb79167947e7648ce546a894b11030d0ebd82178f30",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'construct --ell 5 --p 3 --rank-target 2 --dimension 1 --conductor 3',
        0,
        "779b80ab11b02565b586ce855fd83dadd8aaadf5bc0d99a28962075797306af7",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'construct --ell 5 --p 3 --rank-target 2 --dimension 1 --conductor 3 --json',
        0,
        "8fd74912766a4471c259916e84f6b323ef62dfdc721e3a259baa803f45d235cd",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'construct --ell 3 --p 5 --rank-target 2 --dimension 1 --conductor 3 --gap-rank 1 --av 11a1',
        0,
        "b0f33127c60f5d12b03023ef56ecc021a536616ae3694e7b72141e5670c09ffe",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'construct --ell 3 --p 5 --rank-target 2 --dimension 1 --conductor 3 --gap-rank 1 --av 11a1 --json',
        0,
        "6a4b2245eba7bcc6c182a924f61d8e195af367ff9b1cdcbfc784b9a5b37fd3f4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'construct --base bundled-cubic --ell 3 --p 7 --family nilpotent-class-2 --dimension 3 --twist-exponent 1 --rank-target 6 --av 19a1',
        0,
        "276beccb4f55239dd9ae2ae169af08b8cdcaf446322b007ae6a9bfb3f6551e82",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'construct --base bundled-cubic --ell 3 --p 7 --family nilpotent-class-2 --dimension 3 --twist-exponent 1 --rank-target 6 --av 19a1 --json',
        0,
        "a10f066c3bd49d55a1be3bf4dda1743c2be3d4a26624286c8a3b74372e6c1d80",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'construct --ell 5 --p 3 --rank-target 2 --dimension 1 --conductor 3 --gap-rank 1',
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ab062758b317e400d025fb80cc7452486502133a4270f647790ffe109e6e7586",
    ),
    (
        'construct --ell 5 --p 3 --rank-target 2 --dimension 1 --conductor 3 --gap-rank 1 --json',
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ab062758b317e400d025fb80cc7452486502133a4270f647790ffe109e6e7586",
    ),
    (
        "verify-factorization --conductor 3 --target 7 --factor '2 - zeta3' --factor '2 - zeta3^2'",
        0,
        "f26d150e944b01c46dd01795a146c92b10505c46416eaf434d2d7486bfc512a1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        "verify-factorization --conductor 3 --target 7 --factor '2 - zeta3' --factor '2 - zeta3^2' --json",
        0,
        "7edbe0e901c9571266f9b74602107db13d80f3bf92bd9e3e7e09680e550b697b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'verify-factorization --conductor 7 --target 43 {six}',
        0,
        "2f48108e50c2a349b95f2d075cd5d295a2cf69fb0d0ddceb58b30929897cbae9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'verify-factorization --conductor 7 --target 43 {six} --json',
        0,
        "40c1f16faec868a3d039577bc6744c5ab8815861b178be8471d618042203eef7",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        "verify-factorization --conductor 3 --target 8 --factor '2 - zeta3' --factor '2 - zeta3^2'",
        1,
        "1850e5483c9c4057f2f1a7c27587475892528cd046a74bea07e39e96602e1d2b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        "verify-factorization --conductor 3 --target 8 --factor '2 - zeta3' --factor '2 - zeta3^2' --json",
        1,
        "d9ede677fde656a058719a50c66e7a0b597a48dfe2c0a07e6636ec02ac5a9efd",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'split 43 7',
        0,
        "c6d0d637e005dfd437d483fdd1d9c47dc71df2fa47c607388600dbcd506418c5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'split 43 7 --json',
        0,
        "f6162a350f2c0634e583443470afc9dc961ee62e4bb37d396a343fa3e79a45b1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'split 3 7',
        0,
        "cf7f1d1677c7c903c8bf9966ae57679583fed954252834f80c17d7fa4b4438ec",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'split 3 7 --json',
        0,
        "ba977051c1f9ee3eff071358eadbdad33ca4a375220bf55bc858d1af0b477a9b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'split 7 7',
        1,
        "5cf51c372e37bd44296f577b6ada038712c1449189c50d457dadfd1c262f7832",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'split 7 7 --json',
        1,
        "d8d98b6e8575c7c993bd36b8a3bd98797811496b6b1080e3eac734f18027779a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'inert-primes 9 --count 8 --exclude 3',
        0,
        "36363bd6aff4d64e392f5203ff4736ce42117ab5fdb9250e6b1658f914b10d32",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'inert-primes 9 --count 8 --exclude 3 --json',
        0,
        "d7b55bb6a50c535333cf7a256527124c827420149474451f7aa5056d79a3c48a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        'inert-primes 8 --count 1',
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "9029298a15d730a48ff296e1ec2d429362baae51b361d9bd3d6c08c4111d3c0f",
    ),
    (
        'inert-primes 8 --count 1 --json',
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "9029298a15d730a48ff296e1ec2d429362baae51b361d9bd3d6c08c4111d3c0f",
    ),
    (
        'inert-primes 3 --count 100 --ceiling 100',
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "17afe17787c8280559653c85701e57bf7a3c36a7884f0f1cef892348cc0aed87",
    ),
    (
        'inert-primes 3 --count 100 --ceiling 100 --json',
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "17afe17787c8280559653c85701e57bf7a3c36a7884f0f1cef892348cc0aed87",
    ),
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "argv, code, out_sha, err_sha", GOLDEN, ids=[g[0] for g in GOLDEN]
)
def test_golden_bytes(run_cli, argv, code, out_sha, err_sha):
    got_code, out, err = run_cli(*shlex.split(argv.format(six=SIX_FACTORS)))
    assert (got_code, _sha256(out), _sha256(err)) == (code, out_sha, err_sha)
