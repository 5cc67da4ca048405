"""The listed CLI bytes: each command line's exit code and the sha256 of its
stdout, and each error case's exact stderr, pinned.  A change that alters
a value, a certificate, a key order, a line of text or an error message
shows up here.

To re-pin a case after a deliberate output change, print
`hashlib.sha256(out.encode()).hexdigest()` for its command line and say
in the change log which bytes moved and why.
"""

import hashlib
import json

import pytest

from sclflow.cli import main

J = ("--output", "json")

GOLDEN = [
    (J + ("compute", "a b a^-1 b^-1"),
     "b9f4be4468c2871c427c84c15b5d9a795d117585d5a284e408008a88df1bf261"),
    (J + ("compute", "a^-3 b^-1 a b a b^-1 a b", "--bound", "3", "--no-stabilize"),
     "dfc951705a6a554c2649359f06a11321fd5141a8aac55a3eb21655b5450ed464"),
    (J + ("compute", "a^-4 b^-1 a b a^2 b^-1 a b"),
     "93e820295773b87629bc58a22a6922c2648a26d34788dd7375b3df7d3f6a05b3"),
    (J + ("universal", "4", "--compute"),
     "331691f0aa872c3a188812fb12fafaf15376f75bfe7a5426b99befbe7543e872"),
    (J + ("generic", "5", "--compute", "--seed", "3"),
     "48f06521da3689ef0f4dbce8b0742cfe260b3f85571480239a487bad8d0eb681"),
    (J + ("conjecture", "1", "1", "1"),
     "18aee3596d693efd990ba10314c0d4c73b14e60adc889256eca44118ccb7bcc8"),
    (J + ("bounds", "a b a b a b a^-3 b^-3"),
     "553a57e82cb12275b897166c353e1527f4a0a67c19b619a07fa23e5b02def3ca"),
    (J + ("gadget", "reduce", "--values", "1,2,3,-5"),
     "c41dbff15eb5dd66be8c147f1b1e69fe30ecd2ff06cc675a41e43945a35be148"),
    (J + ("gadget", "reduce", "--values", "2,-1,-1"),
     "f2bf8d85e77705309effdf6c54f645600f87d8529e1ce4432caa3105f473d108"),
    (J + ("gadget", "subset", "--variant", "MIXEDSSP", "--values", "1,-1,3,-3"),
     "13d9a25e4cf7f7a19639b41b3516c5416d613c679ad8eec801352dab8db34079"),
    (J + ("verify", "--only", "1,4"),
     "f0bc4bb2fe5441e7a325300061b4643fb14f01bce43bb8eb6d06607dd9fa0750"),
    (J + ("rays", "a b a b a b a^-3 b^-3"),
     "2db897baf268c3e706d6e307b1b5ab0c614e4b05cb07105055d8cc8ad3b120e7"),
    (J + ("synth", "--graph", "{graph}"),
     "ccb467fa220ce4570f30b9cc6af7c539c2d18c342be34a58f645eddb06bf159d"),
    (J + ("essential", "a b a^-1 b^-1", "--disc", "{disc}"),
     "67176c80f1d9c77c0278f7b58cbca263e91ec9dff60085253ff481ca1970e637"),
    (("compute", "a b a^-1 b^-1"),
     "14dbba4a7fa4f0af3967ad43978095b046171266015a95fe63e868354a059ab7"),
    (("universal", "5", "--compute"),
     "fd629a0c37b989aef1b8f20462d285cb2fc7107f9ed339e5d0728e42b763dc01"),
    (("gadget", "table", "--values", "1,-1", "--r", "1"),
     "2fd73bfc9ad7767add8b55091a03f96b9da3c765a7b1da42eaab90fcaac0b955"),
    (("gadget", "smallscl", "--values", "2,-1,-1"),
     "a93f6758ff46ad7a19cca510aadce36ccd04bf52782895fda7ed7753b67abbd7"),
    (("verify", "--only", "1,4"),
     "24158f2b04841798fa83e93dadc79122af8d36557cbf9004c06864cc481e827b"),
    (("bounds", "a b a b a b a^-3 b^-3"),
     "3a419d21f6818648abec14ca28eb71bfc93ca515350f8af64c63ab20705516c5"),
    (("generic", "5", "--compute", "--seed", "3"),
     "392a03097ebab89d62668a543dc91cfb0a064d43963a91ba3106c75cd3e5a0cb"),
    (("conjecture", "1", "1", "1"),
     "f66adb1edb5c2642e88e59472c2d11ad9785a0ed5a2efd4d4b6e75386a90c2ff"),
    (("gadget", "reduce", "--values", "1,2,3,-5"),
     "631b4787e93127ad24b809fead1d949f2beeed37382df9d366bb3ee6526140aa"),
    (("gadget", "reduce", "--values", "2,-1,-1"),
     "2acb3661a79a1c955db9911ff2bbd567ec8d210654f4c5a68c8fad68ea8fb2ec"),
    (("rays", "a b a b a b a^-3 b^-3"),
     "9cd08ea30beacad2c70f75f01650f7602111f27ee8a9ef8762d2841643fa4c12"),
    (("synth", "--graph", "{graph}"),
     "659f421282ec1be8875762dffa48410cc7f314e7959e51eedf92e28c22800e55"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_listed_cli_bytes(tmp_path, capsys, argv, digest):
    graph = tmp_path / "two_cycle_graph.json"
    graph.write_text(json.dumps({"vertices": 2, "edges": [[0, 1], [1, 0]]}))
    disc = tmp_path / "two_cycle_disc.json"
    disc.write_text(json.dumps({"n": 2, "entries": [[0, 1], [1, 0]]}))
    argv = [a.format(graph=graph, disc=disc) for a in argv]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


ERRORS = [
    (None, ("compute", "a^2 b"),
     "input error: generator a1 totals +2 != 0 (word lies outside the "
     "commutator subgroup)\n"),
    (None, ("verify", "--only", "x"), "input error: bad criterion list 'x'\n"),
    (None, ("verify", "--only", "99"),
     "input error: criterion ids run from 1 to 13, got '99'\n"),
    (None, ("gadget", "smallscl", "--values=--"),
     "input error: --values needs a value\n"),
    (None, ("synth", "--graph=--"), "input error: --graph needs a value\n"),
    ("[1, 2]", ("compute", "a b a^-1 b^-1"),
     "input error: {cfg}: config must be a JSON object\n"),
    ('{"zzz": 1, "bound": "x"}', ("compute", "a b a^-1 b^-1"),
     "input error: {cfg}: unknown config keys ['zzz']; known keys are "
     "['bound', 'output', 'seed', 'stabilize']\n"),
    ('{"output": "xml", "bound": "x"}', ("compute", "a b a^-1 b^-1"),
     "input error: {cfg}: 'bound' must be of type int, got 'x'\n"),
    ('{"stabilize": 1}', ("compute", "a b a^-1 b^-1"),
     "input error: {cfg}: 'stabilize' must be of type bool, got 1\n"),
    ('{"seed": 1.0}', ("compute", "a b a^-1 b^-1"),
     "input error: {cfg}: 'seed' must be of type int, got 1.0\n"),
    ('{"output": "xml"}', ("--output", "text", "compute", "a b a^-1 b^-1"),
     "input error: {cfg}: 'output' must be 'text' or 'json'\n"),
]


@pytest.mark.parametrize("config, argv, stderr", ERRORS,
                         ids=[" ".join(a) + (f" {c}" if c else "") for c, a, _ in ERRORS])
def test_listed_cli_errors(tmp_path, capsys, config, argv, stderr):
    argv = list(argv)
    cfg = tmp_path / "config.json"
    if config is not None:
        cfg.write_text(config)
        argv = ["--config", str(cfg)] + argv
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", stderr.format(cfg=cfg))
