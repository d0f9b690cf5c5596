"""Golden byte-identity of the command line.

Each case runs ``python -m b2weyl`` in a fresh interpreter under two hash
seeds and compares the sha256 of stdout and the exit code with recorded
values.  Any change to a printed byte -- a reordered record, a
differently normalised rational, a reworded error -- fails here, so a
change that claims identical output has to keep these digests.
"""

import hashlib
import subprocess
import sys

import pytest

from conftest import child_env

HASH_SEEDS = ("0", "4242")

# Ends in a rejected collapse at a non-unit probe, so the error detail
# prints a non-integral gain.
REJECTED_SCENARIO = """\
collapse 3
collapse 1
merge 4 0 8
collapse 13 i3
collapse 2
collapse 23 3i3
collapse 12
collapse 12
"""

# The same scenario without its last line: every collapse passes, so the
# records print merges, pair variants and non-integral totals.
ACCEPTED_SCENARIO = REJECTED_SCENARIO.rsplit("collapse 12\n", 1)[0]

# (id, argv, cascade scenario text or None, exit code, sha256 of stdout)
CASES = [
    ("orbit-json-20", ["orbit", "--max-level", "20"], None, 0,
     "04b42b9647b32fdfb51f44e01e70d0fe7b86c9b4dc42ef901f9c195700a2ffcf"),
    ("orbit-csv-20-mu", ["orbit", "--max-level", "20", "--output", "csv",
                         "--mu", "3/2,1/3,5/4"], None, 0,
     "20451a676b9413ff56ba0561023b4d8231c64b51539dae39011771755b19113b"),
    ("orbit-json-20-mu", ["orbit", "--max-level", "20", "--mu", "3/2,1/3,5/4"], None, 0,
     "60884b97bac28be50707544b5bf4a4257b9866f25ed731ba4bd11d2bc6ee0547"),
    ("orbit-csv-20", ["orbit", "--max-level", "20", "--output", "csv"], None, 0,
     "0cda743693fb93792f6bca7e0a6f166e31695c7b32c02f41aa07c39594dfc982"),
    # Integer sigmas ("28") next to reduced p/q ones ("8/3", not "24/9").
    ("orbit-json-12-mixed-mu", ["orbit", "--max-level", "12", "--mu", "7,1/9,2/3"], None, 0,
     "ba0bc0578f6a29f79762db861de33958d5dce542edbcf6a232928b10b1a82d2b"),
    # The same weights in the CSV sigma columns, which take the flat dot
    # products with the scaled weights.
    ("orbit-csv-12-mixed-mu", ["orbit", "--max-level", "12", "--output", "csv",
                               "--mu", "7,1/9,2/3"], None, 0,
     "60bb2aa11d2a863ec778f81f678f666c89ceb3f90334759156dee319a786148d"),
    # A coefficient bound prunes the orbit, which closes at level 6, so the
    # meta record and the CSV trailer both read truncated=true.
    ("orbit-json-40-pruned", ["orbit", "--max-level", "40", "--max-coefficient", "16"],
     None, 0, "aedf9b16cb8eed1dcb0380bf6fb4528732892054e57b54c362099d54a7ef2926"),
    ("orbit-csv-40-pruned-mu", ["orbit", "--max-level", "40", "--max-coefficient", "16",
                                "--output", "csv", "--mu", "3/2,1/3,5/4"], None, 0,
     "30805e0bb6174d79411d3df7a640968c22d3001af87d6004d633f6448bbd6596"),
    ("check-member", ["check", "8,0,8;0,0,0;4,0,8"], None, 0,
     "ea347ff4e6ec9061f65f15e820fe0eedaf1ae6c74e8640ac53f8d4f01a2dba23"),
    ("check-near-miss", ["check", "8,0,8;0,0,0;4,4,8"], None, 1,
     "02596307fcb544513558c6c68afe425fe5372ab79d98907f22c5d365a3a37ecd"),
    ("descend-mu", ["descend", "20,8,32;16,8,24;24,12,40", "--mu", "3/2,1/2,1"], None, 0,
     "50f3b68fb5dba815d39e6eebc64ea64c41df257fbf575907cbdb4da7c010f6d4"),
    # Deep members, |m_i| >= 40: id (6,-42,47) descended and id (7,43,50)
    # evaluated with its word, both long runs of reduced_word, and id
    # (5,42,-46) certified on its large entries.
    ("descend-deep-mu", ["descend", "976,968,1856;1064,1060,2032;1016,1012,1940",
                         "--mu", "3/2,1/2,1"], None, 0,
     "0cdb47df18c811cb45d753eafd9924a881dd3d3e3cc0b675667caf3969d22a1c"),
    ("closedform-deep-mu", ["closedform", "7", "43", "50", "--mu", "2/3,5/4,7/2"], None, 0,
     "d225abd3fbad1063e36bdba86c1e139e7cfc9f49fbc2ae0b5d45ccff1e294f20"),
    ("check-deep-member", ["check", "1060,968,2024;968,884,1848;1016,928,1940"], None, 0,
     "ea347ff4e6ec9061f65f15e820fe0eedaf1ae6c74e8640ac53f8d4f01a2dba23"),
    ("type", ["type", "20,8,32;16,8,24;24,12,40"], None, 0,
     "b46c85ddfd37547f1f2ee02ad04e622caafcf33094b34b7c4596342f5a3ad4da"),
    ("closedform-mu", ["closedform", "8", "-5", "7", "--mu", "2/3,5/4,7/2"], None, 0,
     "b8424096a11cf4090d520f54236a92a66fd09aaf516082ac536ba9083dc30325"),
    # No weights, so no sigma before the closed_form tail.
    ("closedform-no-mu", ["closedform", "8", "-5", "7"], None, 0,
     "2fed9d2a0fceba753e5e3dac6ad1e82a41ce9c73e7228e424d3ae08c0ef0f22f"),
    # The origin: level 0 and an empty word.
    ("closedform-origin-mu", ["closedform", "1", "0", "0", "--mu", "3/2,1/3,5/4"], None, 0,
     "c11e354a6ce7049f8142c3d3689d3c7220f1895eb6dc2c65bff4e9e4fb573bf9"),
    ("relations", ["relations", "--trials", "40", "--seed", "11"], None, 0,
     "fca84cd21a812f3f3dc4d11b9c259ad93372b5893bf7d53b2064840a7a939cd4"),
    ("sinh-orbit", ["sinh", "--max-level", "6"], None, 0,
     "5a2a678353d2e829433c8f3cc5d1c532653cf799a40dea82986dc571560e2985"),
    ("sinh-closed-form", ["sinh", "--closed-form", "-7", "--mu", "3/2,5/3"], None, 0,
     "339fcbe921bd7a03041b32230398c8b06b9a607d0176e63ee731cb13f0edacb1"),
    ("weyl2-subsystem", ["weyl2", "--subsystem", "pair_13", "--weights", "2/3,7/5"],
     None, 0, "7804369b15a69c4c7aaa1735a7fd8d74740f93b739e9b7871f6898ec8a63f3c8"),
    ("weyl2-part-c", ["weyl2", "--part", "c", "--alpha", "1/2,-1/3"], None, 0,
     "ee59eafe069f5ec533fbf9875352218890ddeb53fa0d282fe16be19c29217346"),
    # The rank-two evaluators take zero and negative weights; only the
    # B2(1) weights are required to be positive.
    ("sinh-closed-form-nonpositive", ["sinh", "--closed-form", "3", "--mu=-1/2,0"], None, 0,
     "1f264702a8493d77d2f770e53755305ea9cefc0be6be20e8801a6a7246a8f8ef"),
    ("weyl2-subsystem-nonpositive", ["weyl2", "--subsystem", "appendix_uv",
                                     "--weights=-2/3,0"], None, 0,
     "c839e6c1fe6c0a9e666bf4d7865faf91420c809942bf3b7e13d5679f742baf07"),
    # Outputs no other case covers: part a's two texts, part b's integer
    # tuples and flags, a subsystem orbit without weights, a matrix whose
    # negative entry fails the certificate, and the origin's type.
    ("weyl2-part-a", ["weyl2", "--part", "a", "--alpha", "3/2,-1/3"], None, 0,
     "0628cffacd3070d9d981690a31e488f8957c615612babb1ebd3aeb1f08d8bdff"),
    ("weyl2-part-b", ["weyl2", "--part", "b", "--alpha", "2,3"], None, 0,
     "d83385326efd3f4062ac5419020696e52679f4a6b411fcece74aecba16560740"),
    ("weyl2-subsystem-no-weights", ["weyl2", "--subsystem", "pair_12"], None, 0,
     "8caaf50068a36737f63c9ee9d14debff99f620aa10050d7d6eb16af48eb6c862"),
    ("check-negative-entry", ["check", "8,0,8;0,-4,0;4,0,8"], None, 1,
     "e7c87bd743593527c63cae2eaaa592ae687df21b466bc52b10233e8d2b8e833e"),
    ("type-origin", ["type", "0,0,0;0,0,0;0,0,0"], None, 0,
     "19ba806c7dd8359d070f08baa306b3facf5338f9a100ea7b598c4bb047fb37ed"),
    ("cascade-rejected", ["cascade", "{scenario}", "--mu", "1/3,5/2,7/4"],
     REJECTED_SCENARIO, 1, "8a06bea291185a760739502df47b72fd6ab857208d642d506c18b09ba51339da"),
    ("cascade-accepted", ["cascade", "{scenario}", "--mu", "1/3,5/2,7/4"],
     ACCEPTED_SCENARIO, 0, "c1b390adbbfa3c3692b692f95c1a2a99493af629b9bd72c5f97cc21d02c6656e"),
]


def run_cli(argv, hash_seed, tmp_path, scenario=None, optimize=False):
    """Run the CLI in a fresh interpreter, under -O if asked; return
    (exit code, stdout sha256)."""
    if scenario is not None:
        path = tmp_path / "scenario.txt"
        path.write_text(scenario)
        argv = [a.replace("{scenario}", str(path)) for a in argv]
    flags = ["-O"] if optimize else []
    proc = subprocess.run([sys.executable, *flags, "-m", "b2weyl", *argv], capture_output=True,
                          env=child_env(PYTHONHASHSEED=hash_seed), check=False)
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
@pytest.mark.parametrize("case_id,argv,scenario,code,digest", CASES,
                         ids=[c[0] for c in CASES])
def test_stdout_is_byte_identical(case_id, argv, scenario, code, digest,
                                  hash_seed, tmp_path):
    assert run_cli(argv, hash_seed, tmp_path, scenario) == (code, digest)


@pytest.mark.parametrize("case_id,argv,scenario,code,digest", CASES,
                         ids=[c[0] for c in CASES])
def test_stdout_is_byte_identical_under_optimize(case_id, argv, scenario, code, digest,
                                                 tmp_path):
    """-O strips asserts; every invariant is an exception, so the bytes stay."""
    assert run_cli(argv, "0", tmp_path, scenario, optimize=True) == (code, digest)
