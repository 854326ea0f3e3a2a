"""Golden byte hashes of CLI output.

Each command's stdout (JSON unless the command names a --format) is pinned
by its SHA-256, together with the exit code, so a refactor that changes any
output byte fails here.  The commands
are every CLI example of the README plus queries that cross the standard
models in characteristics 2 and 3 and the census paths at affine points.
A deliberate output change updates the hash here and is recorded in
CHANGES.md with the diff of the old output against the new.
"""

import hashlib
import io
import sys

import pytest

from pglcensus.cli import _COMMANDS, _build_parser, main

GOLDEN = {
    # the README examples
    "field-info --field 5^2":
        ("b9bb0d96c6030241b2409430a983fa9bf1d07746d92feb32307688593ae305de", 0),
    "fixed-points --field 5^1 --map [1,1;0,1]":
        ("f46e5f35281af9c5cfe963eed17d470fd5ee2dfdef7b64d11f41d0acc3d6f160", 0),
    "build-group --field 5^1 --group cyclic:4":
        ("9bd7c202d57a551c940d215c1ecad8d1e8e4f658309c889127b75c4c2019a59d", 0),
    "locus --field 5^1 --group A4":
        ("32bad0c1961475dce6d78476c658a78fad8de2df460e1dbd6a1e6cbf731b8a19", 0),
    "conjugate --field 2^2 --gens1 [1,0,1,0;0,0,1,0] --gens2 [1,0,0,1;0,0,1,0]":
        ("a4f493ffe45a7953a9fadde07ec8837b0c125e9c3d1f04c596ba1f9e8ca2eb24", 0),
    "census --field 2^3 --group Zp^1 --locus inf":
        ("e185257a008c37c756f91ccfa1dfc57c974dff314ce1c269acc6642a8a8d40c9", 0),
    "census --field 5^1 --group cyclic:4 --locus 0,inf":
        ("477dfe2fe3349fe9739195dfb2ae72c0f203ddf1744e0bcbe0ea56af0cfd7c8f", 0),
    "census --field 2^3 --group Zp^2 --locus inf --jobs 4":
        ("e94c7e41014788d0cd80502c0a9ea28525e3ee904457c2cf4deaa03369cfff76", 0),
    "additive-subgroups --field 2^3 --rank 1":
        ("e7a5022512d82d32ebd2225f9d8ffb0544383ce1030d5d96b319789acefaf08a", 0),
    "verify-p1fp --field 5^1":
        ("bfd73bb15a654e141f4a04e47fe37e47f19f1ab809e623a48cce576780dd116e", 0),
    "verify-main --p 2 --levels 1-4":
        ("ffb520f3b7236b3d258a6b60fc4c2852517c93feabc353e77f7d3b06b13e69e0", 0),
    "verify-main --p 5 --levels 1-2 --tags cyclic:4@0,inf":
        ("700d2dcc940efe989492f864036bffc58d2808e5bb9c131f0763b351a2581181", 0),
    "verify-genus1":
        ("a8b9f03c9dca86b60682e441ec758bb726fadb479207cd1abd686ce8eadf7a2f", 0),
    "ramification --field 3^1 --poly 0,1,0,0,0,1 --ext 2":
        ("ded6b61b6d77f005d0a869f19769637ac9c61196727ea2e9e43a9d9d6aa0afe1", 0),
    # elementary-abelian censuses at an affine point
    "census --field 2^3 --group Zp^2 --locus 1,0,0":
        ("c3e81d251a0e69e549090b946178c71ea1edd2b25f326b5ad0c993aabcde174c", 0),
    "census --field 3^2 --group Zp^1 --locus 1,1":
        ("d9ac7a5649b3622ff38c2658e4bcbd04244a016fe28133e6e94e7d5c0796aeca", 0),
    # the characteristic-2 dihedral model (count 10 at its own locus)
    "build-group --field 2^2 --group dihedral:3":
        ("64e228939db7227020b08eec28b5482320be7ed8f4cc258e2c400dd1fd620153", 0),
    "locus --field 2^2 --group dihedral:3":
        ("82929db8e6e528ac5613c19032e81398fa39aff0825c7cda3b35fb58194ff99a", 0),
    "census --field 2^2 --group dihedral:3 --locus 0,0,1,0,0,1,1,1,inf":
        ("a63dc336c93147b5b0bc3c975111fb577a4105c5d4b0a61b3e2adfd9012d1b7b", 0),
    # the icosahedral model in characteristic 3 and in a p-regular field
    "build-group --field 3^4 --group A5 --ext 1":
        ("4051f186bb19b644306ee237c2af9b1675543a47e79728c75a8fbe90fe839bb7", 0),
    "build-group --field 11^1 --group A5 --ext 1":
        ("44fcc1aaf90b84342eb45d160007e26b1e7aebcbe325fbb9c7abda773ff87423", 0),
    # triple transport onto a four-point locus, and a gamma tag at a point
    "census --field 5^1 --group dihedral:2 --locus 0,1,4,inf":
        ("bc9f4940efd3880fc54e1ba8f9480f32ec9a338ec561dd450c9233943f4d9d1c", 0),
    "census --field 3^2 --group gamma:1:2 --locus 1,0":
        ("1bc1e79271633786b1d293fc504ccb464acc2a9d60d06ecc844936a9e28597ea", 0),
    # every branch of the fixed-point solve: p = 2 with a unique square root,
    # p = 2 through y^2 + y = v, an irreducible quadratic, c = 0
    "fixed-points --field 2^2 --map [0,0,1,0;1,0,0,0]":
        ("557b750b5b31e97166e8d7115b01a81c4eb259a658a5f5477b7b3c21bb68fc14", 0),
    "fixed-points --field 2^2 --map [1,0,1,0;1,0,0,0] --ext 1":
        ("42f0f8a7b79a2fdf916a98069e9fb0454be15e56e091df402f948c6f17c778ce", 0),
    "fixed-points --field 2^2 --map [1,0,1,0;1,0,0,0] --ext 2":
        ("595e84b9b95547b999d97a7c56b7003c70afe9372ac9893627697e2f94f0e819", 0),
    "fixed-points --field 3^1 --map [0,1;2,0] --ext 1":
        ("9875b6204cbe09179d7265b18c9eb9e3be73be0cd594c137040763709fef6f86", 0),
    "fixed-points --field 3^1 --map [0,1;2,0] --ext 2":
        ("22d199742c6149d80f742ce6a457da2f73407d2264a063bb7af0ea4768a4bd5e", 0),
    "fixed-points --field 5^1 --map [2,0;0,1] --ext 1":
        ("257c5408bf6a9c8ee3dc0747a125b772da85003c48a35726ac5ee22f7988ed8f", 0),
    # stabilized loci over the capture fields F_729 and F_256
    "locus --field 3^3 --group PGL2:1":
        ("1ebc84421758f623894226de7ecede5e5b6ac8746a89fefba6659b4814752400", 0),
    "locus --field 2^4 --group dihedral:3":
        ("e8c929e83b219c288549e59d4ed77b0a9b2c542dd246767bb5dfc57a320b31fc", 0),
    "verify-p1fp --field 2^2":
        ("b1a9674d44e9ec93f9fe1843bc4583a5b7e9faf2d763c5111fa5437af9b93318", 0),
    # transporter census paths: a moved six-point locus, the A4 model at
    # its own fourteen-point locus, and a model locus (the Klein group over
    # F_7, with +-i) that is irrational over the census field
    "census --field 3^2 --group dihedral:2 --locus 0,0,0,2,1,0,1,1,2,1,2,2":
        ("7c261d976cfd06a04aa485f8a7ac3dcd140989b7ff954ec66f80d35e84f2c6df", 0),
    "census --field 5^2 --group A4 --locus 0,0,1,0,1,3,1,4,2,0,2,1,2,3,3,0,3,2,3,4,4,0,4,1,4,2,inf":
        ("5d7c879a1924745d640f2783da8eeeae8789db48953798e94be02d130af6ade1", 0),
    "census --field 7^1 --group dihedral:2 --locus 0,1,2,3,6,inf":
        ("bf10f9fedcb8496ffe421ade3903a7643418c698bd690c32cd39a110278b0bb2", 0),
    # a two-point locus {0, inf} where the swap x -> 1/x is the witness and
    # a map fixing both points (x -> 4x) would also be one
    "conjugate --field 13^1 --gens1 [12,0;0,1]|[0,2;1,0] --gens2 [12,0;0,1]|[0,7;1,0]":
        ("2bc5447681b9f0c3bb2b7741542f03812b8128b1ed7aa2333d690f93fc9af2ee", 0),
    # explicit moduli whose root x is not a primitive element (x has order 5
    # in F_16 and order 4 in F_9; 3^2/1,0,1 is also the auto modulus), and a
    # curve whose check reaches F_{7^4}
    "locus --field 2^4/1,1,1,1,1 --group dihedral:3":
        ("af96c998e3303387d8ddfa96da6502622c41c16726b21b2fec107ea6460be690", 0),
    "census --field 3^2/1,0,1 --group Zp^1 --locus 1,1":
        ("d9ac7a5649b3622ff38c2658e4bcbd04244a016fe28133e6e94e7d5c0796aeca", 0),
    "verify-p1fp --field 3^2/1,0,1":
        ("98569653f767360ddf652863cf7f43f40691a84c5aed6ef2721080161a344132", 0),
    "verify-genus1 --curve 7^1:a=2,b=3 --levels 1-4":
        ("d44ae0aea529139f6d92fa6da35bc49f89b914b2cca1869ccbf7885bbcf0677d", 0),
    # the --ext path: point scans, fixing counts, torsion and singleton
    # certificates over F_{q^2}, at j = 1728 and j = 0
    "verify-genus1 --curve 5^1:a=1,b=0 --ext 2":
        ("f32cb2520a6d9f2c339ad46cd6a36fddcd41a1999093d35d8443bc9261d35e56", 0),
    "verify-genus1 --curve 7^1:a=0,b=1 --ext 2":
        ("9972b58617decf0b1d016d637ca24ef536b9880bd1d53430a6119ff436e6f4f4", 0),
    # the fixing check, torsion and singleton bounds above level 2: F_125
    # and F_625 at j = 1728 (N = 640 at F_625), F_343 at j = 0
    "verify-genus1 --curve 5^1:a=1,b=0 --ext 3":
        ("f5aeee6f736499c8c776ac554c7c9ce1be7ff622da0bf190d669cca46529365d", 0),
    "verify-genus1 --curve 5^1:a=1,b=0 --ext 4":
        ("ed3a548271921d8d1416f589095ed5e9f970b61eb2f0a563f341608fb04092db", 0),
    "verify-genus1 --curve 7^1:a=0,b=1 --ext 3":
        ("f02f2c103a2f6be7a13b06a7cd67622e228dd056a87cf1105d36b7e6790f5594", 0),
    # PGL2 of the prime field closed from its generators, not its elements
    "locus --field 11^1 --group PGL2:1":
        ("391714445593168c29cf91100df49ab71140366ed89d29e087e27188e46128d4", 0),
    # transport modulo the model: dihedral:3 at all of P^1(F_7) (28 matches
    # from 336 maps), at a moved five-point locus over F_16 (10 matches), and
    # the Klein group over F_11, whose locus (with +-i) is irrational there
    "census --field 7^1 --group dihedral:3 --locus 0,1,2,3,4,5,6,inf":
        ("66721eb52e29af9c8621d8114ad6c7ccfd9827dc9fc9c73fd4f676401922fa00", 0),
    "census --field 2^4 --group dihedral:3 --locus 0,0,1,1,0,1,0,0,1,1,0,0,1,1,1,0,1,1,1,1":
        ("b748724ab3dc1cbafa74bc2b195739d1571a7c7e4ff765768f82278fa956afab", 0),
    "census --field 11^1 --group dihedral:2 --locus 0,3,4,6,7,inf":
        ("f03b0123924a1ffc6eb92d499dd34ddd33eefe373b128731ec6680501f04ed32", 0),
    # conjugacy at loci of six and eight points: two S3 over F_7 with a
    # witness, and A4 against S3 x Z2 over F_5, which are not conjugate
    "conjugate --field 7^1 --gens1 [0,1;1,0]|[0,1;2,0] --gens2 [0,1;1,0]|[0,1;6,1]":
        ("b2ab6717087a00ec0f05b5abbd43eb26b0e82071d7cdfd4a4ea223ef7053bd98", 0),
    "conjugate --field 5^1 --gens1 [0,1;1,0]|[0,1;4,0]|[1,1;2,3] --gens2 [0,1;1,0]|[0,1;4,1]|[1,1;2,4]":
        ("5b668a141b5ab2afbdf880b364e6f9eb724b098fc7b1f7f34151e803d2166d24", 0),
    # the fixed-point dichotomy read off fibre polynomials: three [0, 0, 0]
    # violations at the default levels, one at the 2-torsion point (6,0);
    # j = 0 at levels without 1 and with a repeat; j = 1728 at levels 1-4;
    # and a curve over F_49 whose violations reach level 2
    "verify-genus1 --curve 7^1:a=2,b=3":
        ("75883735e2a0cde4e753fc991707aef24ef1c523bf6b2d9aabefabb1a8b05872", 1),
    "verify-genus1 --curve 7^1:a=0,b=1 --levels 2,4,2":
        ("86f646ec7e21a3a2fee616d68e49044cbdc2d71a79c366de694e17a63ccdcab1", 1),
    "verify-genus1 --curve 5^1:a=4,b=0 --levels 1-4":
        ("7fdd1d8343aacd6790aa1d2402d33d35426fdb168f3396fc6ba6128d6edcda1a", 0),
    "verify-genus1 --curve 7^2:a=1,1,b=3,0 --levels 1-2":
        ("df5bacefea37462030541c3472b01e988acf45e9f83f83edb4b0217cbb73277c", 1),
    # censuses decided over the census field: a PGL2:1 model over F_243
    # whose locus leaves it, dihedral:3 (count 0) and cyclic:3 (count 1)
    # at a pair, the last over F_1024, whose capture field F_{2^20} the
    # census needs no tables of
    "census --field 3^5 --group PGL2:1 --locus 0,0,0,0,0,1,0,0,0,0,2,0,0,0,0,inf":
        ("d673c8abc841c794e2f1a15d646d2e10a97abb465ce36c2c79f23b67451fa995", 0),
    "census --field 2^8 --group dihedral:3 --locus 0,0,0,0,0,0,0,0,inf":
        ("b025a67c976ded2eae0aa1513de4d29e225f881b4ff10295d5b840073c29dd9c", 0),
    "census --field 7^3 --group cyclic:3 --locus 0,0,0,inf":
        ("9abf2f7d4c2b68a13d2738f1c0d5b9d374785b6818739833c2ef8b494f62c768", 0),
    "census --field 2^10 --group cyclic:3 --locus 0,0,0,0,0,0,0,0,0,0,inf":
        ("da20548593f9e1ae65ac6951cbf75b511f394609485908bca62dc645808b8245", 0),
    # the oracle's point-stabilizer scan at its large end: three rows over
    # F_13 and F_169, and one row over F_512
    "verify-main --p 13 --levels 1-2":
        ("cdee6e16ccc6349101d4a320eb6bcabd0e5eef7f0da74b0cd39b91cfe51a05b0", 0),
    "verify-main --p 2 --levels 9 --m 1":
        ("41d30c637c78ceed01e087189cbcd310d9d98adb8ffcea5e97bd42c63542860a", 0),
    # transport and conjugation at all of P^1(F_25): S4 (650 matches) and
    # PSL2 of the prime field (130 matches)
    "census --field 5^2 --group S4 --locus 0,0,0,1,0,2,0,3,0,4,1,0,1,1,1,2,1,3,1,4,2,0,2,1,2,2,2,3,2,4,3,0,3,1,3,2,3,3,3,4,4,0,4,1,4,2,4,3,4,4,inf":
        ("74e6f05bb0951410edc872a25123c957127565540b22894f2b805abdfa6fd391", 0),
    "census --field 5^2 --group PSL2:1 --locus 0,0,0,1,0,2,0,3,0,4,1,0,1,1,1,2,1,3,1,4,2,0,2,1,2,2,2,3,2,4,3,0,3,1,3,2,3,3,3,4,4,0,4,1,4,2,4,3,4,4,inf":
        ("2b76068710d8e9f065f5d75383a825fe97b3e455ffb3ce6d620fbdc4437bbeb5", 0),
    # the csv and human views, whose row loops the JSON hashes never run
    "locus --field 5^1 --group A4 --format human":
        ("ac7ecd676a1e4c4fc9893392867cb5faa92ce867f7a1b1d250de2cb18e01f830", 0),
    "verify-main --p 2 --levels 1-3 --format csv":
        ("d8cb725d71f7ab62c7da2a7ddb50dc58b92a10f78b007d7f251b055326356356", 0),
    "verify-genus1 --format human":
        ("2227143b070a2e954d26a82f90c52ab731b03666bf4f98d81d9edb429731b4cb", 0),
    # the per-curve fixing check, singleton bound and torsion walks over
    # F_{q^2} for the whole standard suite, and at j = 1728 over F_169 in csv
    "verify-genus1 --ext 2":
        ("a0af22ac7c04073076f284958efd261904ed19b2f485d7081b227f6cf40aa9f8", 0),
    "verify-genus1 --curve 13^1:a=1,b=0 --ext 2 --format csv":
        ("acead391a8966106e91aec71e7f79f7baa06cb8a5cc2f15a8813226e9cde44df", 0),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_hash_and_exit_code(command):
    buf = io.StringIO()
    code = main(command.split(), out=buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert (digest, code) == GOLDEN[command]


EMPTY = hashlib.sha256(b"").hexdigest()

# argparse's own output: the top-level and per-command help, an unknown
# command, missing arguments and an unrecognized one, each as the SHA-256
# of stdout and of stderr with the exit code.  argparse words its help
# differently across Python versions, so the hashes hold for the version
# that recorded them; test_parser_matches_the_full_parser runs everywhere.
PARSER_PYTHON = (3, 11)
PARSER_GOLDEN = {
    "": (EMPTY, "300822600cd4a5f87b991389a5b49eb235dc93c9ed8e6dc060e4500f9543b6aa", 2),
    "--help": ("6d5a42efb604dc3741b4656c5ba4b5e03abba4f79fe44fffcd2c3d57589840cd", EMPTY, 0),
    "nosuch": (EMPTY, "d01891077f07ef7aa352ce81281b34b1eae190818b9430595f1d003588910cce", 2),
    "field-info --help": ("41229759399eb0b2e97b68f2630b0506945af91a08cb94c436e37b0222035db9", EMPTY, 0),
    "fixed-points --help": ("a5293fd2d8a49d983f542eb0a30ee6ecf68c28690897f1f1edfe2140b183b9d7", EMPTY, 0),
    "build-group --help": ("da16995f4f10b97e001ddd32a4042b0419343cfad73a8ad7014b039e26041f44", EMPTY, 0),
    "locus --help": ("bec30dd3c79ad364283ddb622b6fc7e3121f587820e4e687e49d79f14bfcd9ac", EMPTY, 0),
    "conjugate --help": ("78134f03b8425a6a6f254f47ea5421fd378473356198dac0703d2f4449b054cc", EMPTY, 0),
    "census --help": ("deaad6c0175bad7a3e7bf9d106160efbe71b6b5946ad432c9ae9d320e74243a4", EMPTY, 0),
    "additive-subgroups --help": ("2455a5f1c1e52f9bcda7620b9a3dca656614c53cd3118796803719fc12d088be", EMPTY, 0),
    "verify-p1fp --help": ("3282b046e0853f6cbc268a7f4b0856848acedb7b94607e26818af5d3f381afb5", EMPTY, 0),
    "verify-main --help": ("8098d41c113d56dba08c30c40b7c44dc06baff5203c6c28db11cd1486e16995b", EMPTY, 0),
    "verify-genus1 --help": ("3c1a338b4208de74e8da901e0ff44b14047ff0ff3d3d2da5b95607e507a3304c", EMPTY, 0),
    "ramification --help": ("2c1519e4a3a62347ae8c15098128661d7d592de737813f26b845161c1bc496b5", EMPTY, 0),
    "census --field 5^1": (EMPTY, "aee1c1b5ff7f7e2d7a13bfc50d6440cef95b5193bb84eb1142fe3cd938efe8ac", 2),
    "verify-main": (EMPTY, "a206c8d3e973906ad5462e1e26e0197994e4197671823d46b7cdcdf7fafd3fe5", 2),
    # the top-level usage line, which lists every command
    "census --field 5^1 --group Zp^1 --locus inf --bogus":
        (EMPTY, "632a913c40fe01670906010f4b1e97a8523d9a6e9c950b5d1721ab85722f7bfc", 2),
}


def run_parser(command, capsys, monkeypatch):
    """(stdout, stderr, exit code) of a command line that argparse answers,
    at a fixed terminal width."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(command.split())
    captured = capsys.readouterr()
    return captured.out, captured.err, exc.value.code


@pytest.mark.skipif(sys.version_info[:2] != PARSER_PYTHON, reason="argparse help text varies by Python version")
@pytest.mark.parametrize("command", sorted(PARSER_GOLDEN))
def test_help_and_usage_error_hashes(command, capsys, monkeypatch):
    out, err, code = run_parser(command, capsys, monkeypatch)
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
    assert (digest(out), digest(err), code) == PARSER_GOLDEN[command]


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_parser_matches_the_full_parser(command, capsys, monkeypatch):
    # main builds one command's subparser alone; its help, an invalid
    # choice and an unrecognized argument must read as the full parser's
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (["--help"], ["--format", "xml"], ["--bogus"]):
        answers = []
        for parser in (_build_parser(command), _build_parser()):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([command, *argv])
            answers.append((capsys.readouterr(), exc.value.code))
        assert answers[0] == answers[1], argv
