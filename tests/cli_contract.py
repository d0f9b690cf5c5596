"""The command line's byte-level contract, as one table.

Each row of ``CONTRACT`` is ``(id, argv, scenario, exit code, expected)``.
A scenario is None or a cascade scenario's text, whose file's path
replaces ``{scenario}`` in argv.  ``expected`` is the exact stdout,
``"sha256:<hex>"`` of it, ``"prefix:<text>"`` for a usage record whose
detail argparse words (differently across Python versions), or None to
check the exit code alone.  ``test_golden.py`` and ``test_cli.py`` replay
the table; run as a script, with no pytest, it replays every row in
``python -S`` children and exits 1 naming the first that fails:

    PYTHONPATH=src python -S tests/cli_contract.py

A new CLI output adds one row here.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

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

# 300 accepted moves: the collapses climb the orbit along the word
# 1,3,2,1,3,2,... and each is followed by a merge.  The last line undoes
# the last collapse, which the gain bound rejects; nothing is written
# before the replay has passed, so stdout is the error record alone.
LONG_REJECTED_SCENARIO = "".join(f"collapse {(1, 3, 2)[k % 3]}\nmerge {4 * (k % 3)} 0 "
                                 f"{4 * (k % 5) + 4}\n" for k in range(150)) + "collapse 2\n"
LONG_ACCEPTED_SCENARIO = LONG_REJECTED_SCENARIO.rsplit("collapse 2\n", 1)[0]

# All twenty collapse lines, each accepted at --mu 1/3,5/2,7/4 and each
# followed by a merge: the two identity variants leave the orbit part
# unchanged, and the other eighteen move it with a gain above the bound.
EVERY_COLLAPSE_SCENARIO = "".join(
    f"collapse {line}\nmerge {4 * (k % 3)} {4 * (k % 2)} {4 * (k % 5)}\n"
    for k, line in enumerate(("13 i", "13 3i", "12", "23 3", "23 i3i", "13 i3i3", "23 i3i3",
                              "13 i3i", "2", "13 3i3", "23 i3", "23 e", "3", "23 3i", "13 e",
                              "1", "13 3", "23 i", "13 i3", "23 3i3")))

# Accepted moves, then a pair-{2,3} collapse that loses mass at that probe.
PAIR_REJECTED_SCENARIO = ("collapse 3\ncollapse 1\nmerge 4 0 8\ncollapse 13 i3\ncollapse 2\n"
                          "merge 0 4 0\ncollapse 23 3i\n")

# The records of "collapse 1" then "merge 0 0 8" at the unit probe.
COLLAPSE_MERGE_RECORDS = (
    '{"move":"collapse 1","gamma_coeff":[[4,0,0],[0,0,0],[0,0,0]],"lattice":[0,0,0],'
    '"total":["4","0","0"]}\n'
    '{"move":"merge 0 0 8","gamma_coeff":[[4,0,0],[0,0,0],[0,0,0]],"lattice":[0,0,2],'
    '"total":["4","0","8"]}\n')

MEMBER = '{"member":true,"nonneg":true,"div4":true,"quadric_zero":true}\n'
USAGE = 'prefix:{"error":"usage","detail":"'

CONTRACT = [
    ("orbit-json-20", ["orbit", "--max-level", "20"], None, 0,
     "sha256:04b42b9647b32fdfb51f44e01e70d0fe7b86c9b4dc42ef901f9c195700a2ffcf"),
    ("orbit-csv-20-mu", ["orbit", "--max-level", "20", "--output", "csv",
                         "--mu", "3/2,1/3,5/4"], None, 0,
     "sha256:20451a676b9413ff56ba0561023b4d8231c64b51539dae39011771755b19113b"),
    ("orbit-json-20-mu", ["orbit", "--max-level", "20", "--mu", "3/2,1/3,5/4"], None, 0,
     "sha256:60884b97bac28be50707544b5bf4a4257b9866f25ed731ba4bd11d2bc6ee0547"),
    ("orbit-csv-20", ["orbit", "--max-level", "20", "--output", "csv"], None, 0,
     "sha256:0cda743693fb93792f6bca7e0a6f166e31695c7b32c02f41aa07c39594dfc982"),
    # Integer sigmas ("28") next to reduced p/q ones ("8/3", not "24/9").
    ("orbit-json-12-mixed-mu", ["orbit", "--max-level", "12", "--mu", "7,1/9,2/3"], None, 0,
     "sha256:ba0bc0578f6a29f79762db861de33958d5dce542edbcf6a232928b10b1a82d2b"),
    # The same weights in the CSV sigma columns, which take the flat dot
    # products with the scaled weights.
    ("orbit-csv-12-mixed-mu", ["orbit", "--max-level", "12", "--output", "csv",
                               "--mu", "7,1/9,2/3"], None, 0,
     "sha256:60bb2aa11d2a863ec778f81f678f666c89ceb3f90334759156dee319a786148d"),
    # A coefficient bound prunes the orbit, which closes at level 6, so the
    # meta record and the CSV trailer both read truncated=true.
    ("orbit-json-40-pruned", ["orbit", "--max-level", "40", "--max-coefficient", "16"],
     None, 0, "sha256:aedf9b16cb8eed1dcb0380bf6fb4528732892054e57b54c362099d54a7ef2926"),
    ("orbit-csv-40-pruned-mu", ["orbit", "--max-level", "40", "--max-coefficient", "16",
                                "--output", "csv", "--mu", "3/2,1/3,5/4"], None, 0,
     "sha256:30805e0bb6174d79411d3df7a640968c22d3001af87d6004d633f6448bbd6596"),
    # The walk's generated step, deep (12,417 records) and pruned before the
    # orbit closes (truncated=true count=1168), so that -O and -S replay both.
    ("orbit-json-96", ["orbit", "--max-level", "96"], None, 0,
     "sha256:5cdf6d3bc8cf455b02475b5fbee579bbefbb384a854a89b8d042329951f7ce71"),
    ("orbit-csv-60-pruned-mixed-mu", ["orbit", "--max-level", "60", "--max-coefficient", "400",
                                      "--output", "csv", "--mu", "7,1/9,2/3"], None, 0,
     "sha256:14b630b2220d1bdfa5f17e016cebdf74c6ca25eade9bc074be192725f7edda26"),
    # The benchmark's CSV dump, unpruned: 5,548 rows, each checked against
    # its family's generated closed-form kernel, with sigma columns.
    ("orbit-csv-64-mu", ["orbit", "--max-level", "64", "--output", "csv", "--mu", "3/2,1/3,5"],
     None, 0, "sha256:4f1b80559ee9f906bea38838a357c32fd85ccfba75a3cf27ebd4566408c90128"),
    # The deep outputs of the two level loops: the benchmark's JSON dump
    # (22,018 lines), the JSON records with sigma texts, and the CSV rows
    # without sigma columns, each row checked against its family kernel.
    ("orbit-json-128", ["orbit", "--max-level", "128"], None, 0,
     "sha256:500e30e7c1980142eb3f745056144d8136bb3b70900efcf859c6ddbe637dcb27"),
    ("orbit-json-64-mu", ["orbit", "--max-level", "64", "--mu", "3/2,1/3,5"], None, 0,
     "sha256:0d6264c2f5faca3e7c3c0ea425372f95683c1de1a166feb2129485c83233d733"),
    ("orbit-csv-64", ["orbit", "--max-level", "64", "--output", "csv"], None, 0,
     "sha256:c0ee38ec5bd6b392703b09703679456ba07ccc1ef6fa4aa11ab08a1eb1101b6e"),
    # Help goes through argparse, whose text differs between versions.
    ("orbit-help", ["orbit", "--help"], None, 0, None),
    # The parsers alone check the choices of --output and --subsystem.
    ("orbit-output-xml", ["orbit", "--max-level", "1", "--output", "xml"], None, 2, USAGE),
    # check writes a member's record from the closed-form inversion and
    # builds the certificate only for the vectors the inversion rejects.
    ("check-origin", ["check", "0,0,0;0,0,0;0,0,0"], None, 0, MEMBER),
    ("check-member", ["check", "8,0,8;0,0,0;4,0,8"], None, 0, MEMBER),
    ("check-level-one", ["check", "4,0,0;0,0,0;0,0,0"], None, 0, MEMBER),
    ("check-off-quadric", ["check", "4,0,0;0,0,0;0,0,4"], None, 1,
     '{"member":false,"nonneg":true,"div4":true,"quadric_zero":false}\n'),
    ("check-near-miss", ["check", "8,0,8;0,0,0;4,4,8"], None, 1,
     '{"member":false,"nonneg":true,"div4":true,"quadric_zero":false}\n'),
    ("check-negative-entry", ["check", "8,0,8;0,-4,0;4,0,8"], None, 1,
     "sha256:e7c87bd743593527c63cae2eaaa592ae687df21b466bc52b10233e8d2b8e833e"),
    # A div4 vector the inversion rejects is off the quadric by the
    # certificate proof; a vector that is not div4 gets the quadric computed,
    # and it can vanish there.
    ("check-not-div4", ["check", "2,0,0;0,0,0;0,0,0"], None, 1,
     '{"member":false,"nonneg":true,"div4":false,"quadric_zero":false}\n'),
    ("check-not-div4-on-quadric", ["check", "2,2,0;2,2,0;0,0,0"], None, 1,
     '{"member":false,"nonneg":true,"div4":false,"quadric_zero":true}\n'),
    ("descend-mu", ["descend", "20,8,32;16,8,24;24,12,40", "--mu", "3/2,1/2,1"], None, 0,
     "sha256:50f3b68fb5dba815d39e6eebc64ea64c41df257fbf575907cbdb4da7c010f6d4"),
    ("descend-two-steps", ["descend", "4,0,0;0,0,0;4,0,4"], None, 0, '{"word":[3,1]}\n'),
    # --mu spellings: a sign and an unreduced fraction read as descend-mu's
    # weights, a zero numerator over 5, and a doubled sign Fraction rejects.
    ("descend-signed-unreduced-mu", ["descend", "20,8,32;16,8,24;24,12,40",
                                     "--mu=+3/2,2/4,1"], None, 0,
     "sha256:50f3b68fb5dba815d39e6eebc64ea64c41df257fbf575907cbdb4da7c010f6d4"),
    ("descend-zero-mu", ["descend", "20,8,32;16,8,24;24,12,40", "--mu", "1,0/5,1"], None, 2,
     '{"error":"usage","detail":"weights must be positive, got 0"}\n'),
    ("descend-doubled-sign-mu", ["descend", "20,8,32;16,8,24;24,12,40", "--mu", "1,+-1,1"],
     None, 2, USAGE),
    # Deep members, |m_i| >= 40: id (6,-42,47) descended and id (7,43,50)
    # evaluated with its word, both long runs of reduced_word, and id
    # (5,42,-46) certified on its large entries.
    ("descend-deep-mu", ["descend", "976,968,1856;1064,1060,2032;1016,1012,1940",
                         "--mu", "3/2,1/2,1"], None, 0,
     "sha256:0cdb47df18c811cb45d753eafd9924a881dd3d3e3cc0b675667caf3969d22a1c"),
    ("closedform-deep-mu", ["closedform", "7", "43", "50", "--mu", "2/3,5/4,7/2"], None, 0,
     "sha256:d225abd3fbad1063e36bdba86c1e139e7cfc9f49fbc2ae0b5d45ccff1e294f20"),
    ("check-deep-member", ["check", "1060,968,2024;968,884,1848;1016,928,1940"], None, 0,
     MEMBER),
    # Descent decides membership by the closed-form inversion alone, so its
    # error is the record's detail: sums that are not multiples of 4, and
    # sums naming family 6 at (2,-1) on rows that are not that family's.
    ("descend-non-member", ["descend", "0,0,0;0,0,0;0,0,3"], None, 1,
     '{"error":"verification","detail":"coefficient sums are not multiples of 4; '
     'not a lattice member"}\n'),
    ("descend-wrong-family", ["descend", "8,0,4;0,0,0;4,0,0"], None, 1,
     '{"error":"verification","detail":"vector is not representable by family 6 at (2,-1)"}\n'),
    ("descend-off-quadric", ["descend", "4,0,0;0,0,0;0,0,4"], None, 1,
     '{"error":"verification","detail":"residue pair (0, 3) is outside the eight admissible '
     'types; not an orbit-type vector"}\n'),
    ("type", ["type", "20,8,32;16,8,24;24,12,40"], None, 0,
     "sha256:b46c85ddfd37547f1f2ee02ad04e622caafcf33094b34b7c4596342f5a3ad4da"),
    ("type-origin", ["type", "0,0,0;0,0,0;0,0,0"], None, 0,
     "sha256:19ba806c7dd8359d070f08baa306b3facf5338f9a100ea7b598c4bb047fb37ed"),
    ("type-level-two", ["type", "4,0,0;0,0,0;4,0,4"], None, 0, '{"type":[3,2]}\n'),
    ("closedform-mu", ["closedform", "8", "-5", "7", "--mu", "2/3,5/4,7/2"], None, 0,
     "sha256:b8424096a11cf4090d520f54236a92a66fd09aaf516082ac536ba9083dc30325"),
    # No weights, so no sigma before the closed_form tail.
    ("closedform-no-mu", ["closedform", "8", "-5", "7"], None, 0,
     "sha256:2fed9d2a0fceba753e5e3dac6ad1e82a41ce9c73e7228e424d3ae08c0ef0f22f"),
    # A decimal, an exponent and an underscore: spellings Fraction reads.
    ("closedform-decimal-mu", ["closedform", "8", "-5", "7", "--mu", "1.5,2e0,1_0"], None, 0,
     '{"coeff":[[20,8,24],[32,20,48],[24,12,36]],"level":9,"word":[1,3,2,1,3,2,1,3,2],'
     '"type":[3,3],"sigma":["286","568","420"],"closed_form":[8,-5,7]}\n'),
    ("closedform-anchor", ["closedform", "3", "1", "0"], None, 0,
     '{"coeff":[[4,0,0],[0,0,0],[0,0,0]],"level":1,"word":[1],"type":[1,0],'
     '"closed_form":[3,1,0]}\n'),
    # The origin: level 0 and an empty word.
    ("closedform-origin-mu", ["closedform", "1", "0", "0", "--mu", "3/2,1/3,5/4"], None, 0,
     "sha256:c11e354a6ce7049f8142c3d3689d3c7220f1895eb6dc2c65bff4e9e4fb573bf9"),
    # One request written canonically, which the subcommand table parses,
    # and abbreviated, which argparse parses: the same bytes.
    ("closedform-direct-mu", ["closedform", "1", "-4", "0", "--mu=1,1,1"], None, 0,
     "sha256:7fc54d70fd6cde2f78f1b311035e73cd8407815fb9642f78ff602b844fd7c2d2"),
    ("closedform-abbreviated-mu", ["closedform", "1", "-4", "0", "--m", "1,1,1"], None, 0,
     "sha256:7fc54d70fd6cde2f78f1b311035e73cd8407815fb9642f78ff602b844fd7c2d2"),
    ("relations", ["relations", "--trials", "40", "--seed", "11"], None, 0,
     "sha256:fca84cd21a812f3f3dc4d11b9c259ad93372b5893bf7d53b2064840a7a939cd4"),
    # The trial count and seed are echoed; relations takes no --low.
    ("relations-5", ["relations", "--trials", "5", "--seed", "1"], None, 0,
     '{"trials":5,"seed":1,"failures":[],"passed":true}\n'),
    ("relations-20", ["relations", "--trials", "20", "--seed", "3"], None, 0,
     '{"trials":20,"seed":3,"failures":[],"passed":true}\n'),
    ("relations-low", ["relations", "--trials", "5", "--seed", "1", "--low", "0"], None, 2,
     USAGE),
    ("sinh-orbit", ["sinh", "--max-level", "6"], None, 0,
     "sha256:5a2a678353d2e829433c8f3cc5d1c532653cf799a40dea82986dc571560e2985"),
    ("sinh-closed-form", ["sinh", "--closed-form", "-7", "--mu", "3/2,5/3"], None, 0,
     "sha256:339fcbe921bd7a03041b32230398c8b06b9a607d0176e63ee731cb13f0edacb1"),
    ("sinh-closed-form-unit", ["sinh", "--closed-form", "2", "--mu", "1,1"], None, 0,
     '{"coeff":[[4,0],[8,4]],"m":2,"level":2,"sigma":["4","12"]}\n'),
    # The chain at depth: 4,001 records, and one far element with sigma texts.
    ("sinh-orbit-2000", ["sinh", "--max-level", "2000"], None, 0,
     "sha256:25f635ce2b17421d7a4fe9345b62b6854d97ea78f4af2b2fd216e8730acfb11d"),
    ("sinh-closed-form-far", ["sinh", "--closed-form", "-12345", "--mu", "7/3,5/11"], None, 0,
     '{"coeff":[[152374336,152399024],[152399024,152423716]],"m":-12345,"level":12345,'
     '"sigma":["14018809232/33","14021080588/33"]}\n'),
    ("weyl2-subsystem", ["weyl2", "--subsystem", "pair_13", "--weights", "2/3,7/5"],
     None, 0, "sha256:7804369b15a69c4c7aaa1735a7fd8d74740f93b739e9b7871f6898ec8a63f3c8"),
    ("weyl2-part-c", ["weyl2", "--part", "c", "--alpha", "1/2,-1/3"], None, 0,
     "sha256:ee59eafe069f5ec533fbf9875352218890ddeb53fa0d282fe16be19c29217346"),
    # The rank-two evaluators take zero and negative weights; only the
    # B2(1) weights are required to be positive.  -0.5 reads as -1/2.
    ("sinh-closed-form-nonpositive", ["sinh", "--closed-form", "3", "--mu=-1/2,0"], None, 0,
     "sha256:1f264702a8493d77d2f770e53755305ea9cefc0be6be20e8801a6a7246a8f8ef"),
    ("sinh-closed-form-decimal", ["sinh", "--closed-form", "3", "--mu=-0.5,0"], None, 0,
     "sha256:1f264702a8493d77d2f770e53755305ea9cefc0be6be20e8801a6a7246a8f8ef"),
    ("weyl2-subsystem-nonpositive", ["weyl2", "--subsystem", "appendix_uv",
                                     "--weights=-2/3,0"], None, 0,
     "sha256:c839e6c1fe6c0a9e666bf4d7865faf91420c809942bf3b7e13d5679f742baf07"),
    # Part a's two texts, part b's integer tuples over one denominator and
    # flags, and a subsystem orbit without weights.
    ("weyl2-part-a", ["weyl2", "--part", "a", "--alpha", "3/2,-1/3"], None, 0,
     "sha256:0628cffacd3070d9d981690a31e488f8957c615612babb1ebd3aeb1f08d8bdff"),
    ("weyl2-part-a-positive", ["weyl2", "--part", "a", "--alpha", "1/2,1/3"], None, 0,
     '{"part":"a","tuple":["52/3","68/3"]}\n'),
    ("weyl2-part-b", ["weyl2", "--part", "b", "--alpha", "2,3"], None, 0,
     '{"part":"b","tuples":[[0,0],[0,12],[8,0],[8,28],[20,12],[20,40],[28,28],[28,40]],'
     '"all_nonnegative":true,"all_multiples_of_four":true,"ok":true}\n'),
    # pair_23 is pair_13's coupling on the other idle component.
    ("weyl2-subsystem-pair-23", ["weyl2", "--subsystem", "pair_23", "--weights", "5/4,2/7"],
     None, 0, "sha256:b06f64ed715c9f7a45184c64f3a129c421260bc2651710da9f9248b495ab1338"),
    ("weyl2-subsystem-no-weights", ["weyl2", "--subsystem", "pair_12"], None, 0,
     "sha256:8caaf50068a36737f63c9ee9d14debff99f620aa10050d7d6eb16af48eb6c862"),
    ("weyl2-unknown-subsystem", ["weyl2", "--subsystem", "pair"], None, 2, USAGE),
    ("cascade-rejected", ["cascade", "{scenario}", "--mu", "1/3,5/2,7/4"],
     REJECTED_SCENARIO, 1,
     "sha256:8a06bea291185a760739502df47b72fd6ab857208d642d506c18b09ba51339da"),
    ("cascade-accepted", ["cascade", "{scenario}", "--mu", "1/3,5/2,7/4"],
     ACCEPTED_SCENARIO, 0,
     "sha256:c1b390adbbfa3c3692b692f95c1a2a99493af629b9bd72c5f97cc21d02c6656e"),
    # At the unit probe: a collapse and a merge; a collapse repeated, which
    # prints the rejection record alone; and a bad merge on two lines, which
    # the parser shares and the replay rejects at its first step.
    ("cascade-collapse-merge", ["cascade", "{scenario}"], "collapse 1\nmerge 0 0 8\n", 0,
     COLLAPSE_MERGE_RECORDS),
    # The same file saved with a UTF-8 byte-order mark replays the same.
    ("cascade-byte-order-mark", ["cascade", "{scenario}"], "\ufeffcollapse 1\nmerge 0 0 8\n",
     0, COLLAPSE_MERGE_RECORDS),
    ("cascade-repeated-collapse-unit", ["cascade", "{scenario}"], "collapse 1\ncollapse 1\n", 1,
     '{"error":"rejected-move","detail":"non-physical move collapse 1: total mass gain -4 '
     'falls below the bound 4"}\n'),
    ("cascade-repeated-bad-merge", ["cascade", "{scenario}"],
     "collapse 1\nmerge 4 2 0\ncollapse 2\nmerge 4 2 0\n", 1,
     '{"error":"rejected-move","detail":"invalid satellite (4, 2, 0): entries must be '
     'nonnegative multiples of 4"}\n'),
    # The same at a non-unit probe: a collapse, a merge and a pair collapse,
    # each record exact; then a collapse repeated.
    ("cascade-collapse-merge-pair", ["cascade", "{scenario}", "--mu", "1/3,5/2,7/4"],
     "collapse 1\nmerge 0 0 8\ncollapse 13 i3\n", 0,
     '{"move":"collapse 1","gamma_coeff":[[4,0,0],[0,0,0],[0,0,0]],"lattice":[0,0,0],'
     '"total":["4/3","0","0"]}\n'
     '{"move":"merge 0 0 8","gamma_coeff":[[4,0,0],[0,0,0],[0,0,0]],"lattice":[0,0,2],'
     '"total":["4/3","0","8"]}\n'
     '{"move":"collapse 13 i3","gamma_coeff":[[8,0,8],[0,0,0],[4,0,4]],"lattice":[0,0,2],'
     '"total":["50/3","0","49/3"]}\n'),
    ("cascade-repeated-collapse", ["cascade", "{scenario}", "--mu", "1/3,5/2,7/4"],
     "collapse 1\ncollapse 1\n", 1,
     '{"error":"rejected-move","detail":"non-physical move collapse 1: total mass gain '
     '-4/3 falls below the bound 4/3"}\n'),
    ("cascade-long-rejected", ["cascade", "{scenario}", "--mu", "1/3,5/2,7/4"],
     LONG_REJECTED_SCENARIO, 1,
     '{"error":"rejected-move","detail":"non-physical move collapse 2: total mass gain '
     '-3770/3 falls below the bound 4/3"}\n'),
    # Without its last line it prints 300 records, where each move changes
    # one or two of the three totals and the others keep their texts.
    ("cascade-long-accepted", ["cascade", "{scenario}", "--mu", "1/3,5/2,7/4"],
     LONG_ACCEPTED_SCENARIO, 0,
     "sha256:00c34cdfdf5e40889268635aaa2f819baff0b06ad8b2f748725f462c8557b29a"),
    ("cascade-every-collapse", ["cascade", "{scenario}", "--mu", "1/3,5/2,7/4"],
     EVERY_COLLAPSE_SCENARIO, 0,
     "sha256:9f1f3483b10ca6709ac2ccc6906d69ea7d92a35a87b64084ce7ee25ea3315b04"),
    ("cascade-pair-rejected", ["cascade", "{scenario}", "--mu", "1/3,5/2,7/4"],
     PAIR_REJECTED_SCENARIO, 1,
     '{"error":"rejected-move","detail":"non-physical move collapse 23 3i: total mass gain '
     '-143/3 falls below the bound 4/3"}\n'),
    ("unknown-command", ["orbits"], None, 2, USAGE),
]


def child_env(**overrides):
    """Environment for a child interpreter importing b2weyl from this checkout."""
    env = {k: v for k, v in os.environ.items() if k != "B2WEYL_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(overrides)
    return env


def fill(argv, scenario, directory):
    """``argv``, with ``{scenario}`` the path of a file in ``directory`` holding ``scenario``."""
    if scenario is None:
        return list(argv)
    path = Path(directory) / "scenario.txt"
    path.write_text(scenario, encoding="utf-8")
    return [a.replace("{scenario}", str(path)) for a in argv]


def run_row(row, directory, *flags, **env):
    """Run a row's request under interpreter ``flags``; return (exit code, stdout bytes)."""
    _, argv, scenario, _, _ = row
    proc = subprocess.run([sys.executable, *flags, "-m", "b2weyl",
                           *fill(argv, scenario, directory)],
                          capture_output=True, env=child_env(**env), check=False)
    return proc.returncode, proc.stdout


def observe(row, code, stdout):
    """``(code, stdout)`` in the form of the row's expected value.

    The row holds exactly when this equals ``row[3:]``.
    """
    expected = row[4]
    if expected is None:
        return code, None
    if expected.startswith("sha256:"):
        return code, "sha256:" + hashlib.sha256(stdout).hexdigest()
    text = stdout.decode(errors="replace")
    if expected.startswith("prefix:"):
        return code, "prefix:" + text[:len(expected) - len("prefix:")]
    return code, text


def main(rows=CONTRACT):
    """Replay ``rows`` in ``python -S`` children: 0 if all hold, else 1 at the first that fails."""
    with tempfile.TemporaryDirectory() as directory:
        for row in rows:
            got = observe(row, *run_row(row, directory, "-S"))
            if got != row[3:]:
                print(f"{row[0]}: expected {row[3:]!r}, got {got!r}")
                return 1
    print(f"all {len(rows)} rows hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
