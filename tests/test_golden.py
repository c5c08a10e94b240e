"""Golden outputs: a fixed list of CLI runs, each checked against the
sha256 of its stdout, its stderr and every file it writes, and its exit
code. A change meant to keep every output byte-identical must pass this
unedited; one that changes an output on purpose regenerates the digests
with `PYTHONPATH=src python tests/test_golden.py` and says why.

Runs go through main() in-process, in an empty directory, with relative
paths only, so no output holds a path of the machine it ran on. Manifests
are hashed without their timings (`duration_s`, and the simulation's
`seconds` and `slots_per_s`)."""

import hashlib
import json
import os
from pathlib import Path

from semsched.cli import main
from semsched.core import params_stamp, parse_config, validate_params
from semsched.policies import format_policy, greedy_policy

SMALL = """\
p_s = 0.8
p_v = 0.25
p_q = 0.2
p_e = 0.05
B = 4
N = 4
delta_max = 20
"""
# no versions: the version lags are stranded at an empty battery at p_e 0
STRANDED = """\
p_s = 0.8
p_v = 0.0
p_q = 0.2
p_e = 0.05
B = 10
N = 4
delta_max = 28
"""
EVENTS = "0 1 0\n1 0 1\n1 1 1\n0 0 0\n"


def forged_policy() -> str:
    """A greedy table stamped with small.cfg's parameters but laid out
    for (delta_max, B) = (4, 20), the same number of states as (20, 4)."""
    stamp = params_stamp(validate_params(parse_config(SMALL)))
    rows = [f"{m} {b} {q} {int(b > 0)}"
            for m in range(5) for b in range(21) for q in (0, 1)]
    head = ["# policy table", "kind = aoi", f"params_stamp = {stamp}",
            "delta_max = 4", "B = 20", "metric battery query action"]
    return "\n".join(head + rows) + "\n"


RUNS = [
    ("solve", ["solve", "--config", "small.cfg", "--out", "solve.txt",
               "--pe", "0.2", "--pq", "0.3"]),
    ("solve_vaoi", ["solve", "--config", "small.cfg", "--out", "vaoi.txt",
                    "--kind", "vaoi", "--pe", "1", "--pq", "0.3"]),
    ("simulate", ["simulate", "--config", "small.cfg", "--out", "sim.csv",
                  "--pe", "0.2", "--pq", "0.3", "--policy", "solve.txt",
                  "--reps", "3", "--jobs", "2", "--horizon", "200000"]),
    ("simulate_stamp", ["simulate", "--config", "small.cfg", "--out", "stamp.csv",
                        "--policy", "solve.txt", "--horizon", "1000", "--warmup", "0"]),
    ("simulate_geometry", ["simulate", "--config", "small.cfg", "--out", "geom.csv",
                           "--policy", "forged.txt", "--horizon", "1000",
                           "--warmup", "0"]),
    ("trace", ["trace", "events.txt", "--config", "small.cfg", "--out", "trace.txt"]),
    ("compare", ["compare", "--config", "small.cfg", "--out", "compare.csv"]),
    ("compare_stranded", ["compare", "--config", "stranded.cfg", "--out", "cs.csv",
                          "--pe", "0,0.05", "--pq", "0.2"]),
    ("regions", ["regions", "--config", "small.cfg", "--out", "regions",
                 "--pq", "0.3", "--pe", "0.05,0.20"]),
    ("regions_stranded", ["regions", "--config", "stranded.cfg", "--out", "rs",
                          "--kind", "vaoi", "--pe", "0,0.05"]),
    ("sweep", ["sweep", "--config", "small.cfg", "--out", "sweep.csv",
               "--target", "1.5", "--pq", "0.1,0.4"]),
    ("sweep_greedy", ["sweep", "--config", "small.cfg", "--out", "sweepg.csv",
                      "--kind", "greedy", "--target", "1.5"]),
    ("sweep_unreachable", ["sweep", "--config", "small.cfg", "--out", "sweep0.csv",
                           "--target", "0.0", "--pq", "0.1,0.4"]),
    ("simulate_no_jobs", ["simulate", "--config", "small.cfg", "--out", "nojobs.csv",
                          "--jobs", "0"]),
    # the policy column quotes the file name, which holds a comma
    ("simulate_comma", ["simulate", "--config", "small.cfg", "--out", "comma.csv",
                        "--policy", "a,b.txt", "--reps", "2", "--horizon", "2000",
                        "--warmup", "0"]),
]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name.endswith(".manifest.json"):
        manifest = json.loads(data)
        del manifest["duration_s"]
        for key in ("seconds", "slots_per_s"):
            manifest.get("simulation", {}).pop(key, None)
        data = json.dumps(manifest, indent=2).encode()
    return sha(data)


def run_all(directory: Path, capture) -> dict:
    """Run RUNS in `directory`, the current directory; per run its exit
    code, the digests of its stdout and stderr, and those of the files
    it wrote. `capture()` returns the (stdout, stderr) printed since the
    last call."""
    (directory / "small.cfg").write_text(SMALL, encoding="utf-8")
    (directory / "stranded.cfg").write_text(STRANDED, encoding="utf-8")
    (directory / "events.txt").write_text(EVENTS, encoding="utf-8")
    (directory / "forged.txt").write_text(forged_policy(), encoding="utf-8")
    greedy = greedy_policy(validate_params(parse_config(SMALL)))
    (directory / "a,b.txt").write_text(format_policy(greedy), encoding="utf-8")
    seen = set(os.listdir(directory))
    digests = {}
    for name, argv in RUNS:
        rc = main(argv)
        out, err = capture()
        now = set(os.listdir(directory))
        written = {f: file_digest(directory / f) for f in sorted(now - seen)}
        seen = now
        digests[name] = {"exit": rc, "stdout": sha(out.encode()),
                         "stderr": sha(err.encode()), "files": written}
    return digests


# generated on the unchanged outputs; see the module docstring
EXPECTED = {'solve': {'exit': 0,
                      'stdout': '6b1a62f6d83fcb2f7f537781a309cf146590468e1d177f57c8a384bd5e7a4eab',
                      'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                      'files': {'solve.txt': '6458ac5ca8a8d721069d1bf7ae7cffdab1a80d7026f7cff231293ddbd7721fb6',
                                'solve.txt.manifest.json': 'a157f55810d7f11c761a039a56cd5c56bebc3842b8f3e1ac6cafb6fa9709cc2d',
                                'solve.txt.thresholds': 'edb5ecc237c38f43aa3632e7fda9e027199903b66f766aced38e949838b0ea29'}},
            'solve_vaoi': {'exit': 0,
                           'stdout': '0970b94a505de045472a159e0d409621798a0d0f9bd318672cbf6c06c6e2b6bd',
                           'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                           'files': {'vaoi.txt': 'f4a4c18809867fb480405ddf557bc6c4cbce617d22923898a23b413e92f4f171',
                                     'vaoi.txt.manifest.json': '8b2d292d4796c53988cae0c936fc6aad92e9abbce2e896ad2d7baa10046b42a3',
                                     'vaoi.txt.thresholds': '892a50361d66b4f33825e11bbf67abe678a063d5797dd1ccc93473579f034907'}},
            'simulate': {'exit': 0,
                         'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                         'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                         'files': {'sim.csv': 'f0e7a8775a549aee88db6cb2c78933fdbd1fe515009a99da0003ef37483683ed',
                                   'sim.csv.manifest.json': 'a273fe9aa60057c36ec67d96c1679b4f0cb309b744d9d23e50f94fe80a54abb2'}},
            'simulate_stamp': {'exit': 4,
                               'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                               'stderr': 'ccfa111dd979ce3e5b8b8f67b4b71911c29cca5372c492956a3f11879f39b5fc',
                               'files': {}},
            'simulate_geometry': {'exit': 4,
                                  'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                                  'stderr': '4e1ca7608b4d795c3391fd6052d7fc565fa84bfdb4bc79c15d77f539c109724e',
                                  'files': {}},
            'trace': {'exit': 0,
                      'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                      'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                      'files': {'trace.txt': 'ec8bf8d8d412ceb0b246b41baff791bec6e7e42f36abf6ebadbc824d96ba6559',
                                'trace.txt.manifest.json': 'f91a54df8911f8a21ae46a658ea94cde5c3194f7b41111789728cccd0e3aaa18'}},
            'compare': {'exit': 0,
                        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                        'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                        'files': {'compare.csv': '91a7c495574378f1c4c09acc3e4ff29f09f93353aead3f09f3038c361c15b431',
                                  'compare.csv.manifest.json': '355fddbf4c26f40eca124ceb0ddebc9a4d451cca2f040530ad1ded436bcb456e'}},
            'compare_stranded': {'exit': 5,
                                 'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                                 'stderr': 'e506115f772582553d032ff9bcf06f54065948a91b87607fc0b43338e24a87c2',
                                 'files': {'cs.csv': '542062bced313a8e9414a68a9e7f33ab1edcf71f8cb3d07ca67c701354d661d6',
                                           'cs.csv.manifest.json': 'bb68a6dfaa7b62399a97c2081381acbaf4a2034cb00fb3cc737746b81ca4a774'}},
            'regions': {'exit': 0,
                        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                        'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                        'files': {'regions.manifest.json': '220a024aefd8b3c1f8859aa2d223e23a2546d8da1ef2f54bf1c2221bb4490572',
                                  'regions.pe0.05.csv': '5feb67dc312b7a84183d96ab28c8d5e13022a4ec10ee4b02b1f42bfb2943bd9f',
                                  'regions.pe0.05.thresholds': '12d378d49929fb7be755c5eb09945365c2bbaab5238efb3e1fab86a6a7c7bee3',
                                  'regions.pe0.2.csv': 'f2cae3305f96e0331e438d9243b25067570c3fa23b123c8bbc0570245ba91031',
                                  'regions.pe0.2.thresholds': 'edb5ecc237c38f43aa3632e7fda9e027199903b66f766aced38e949838b0ea29'}},
            'regions_stranded': {'exit': 5,
                                 'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                                 'stderr': '7684263e46bd9a7fb15bfad26223efe4474ca4a8223530fa0c4a72876965df0a',
                                 'files': {'rs.manifest.json': 'a1177e5b7a67d1af8e137a892fdf763bf5acfe86401a7e25b48f9de6b7f95b2b',
                                           'rs.pe0.05.csv': 'a6f7bdb710802fa7f9e310e175e19e4a234e554965152319f58a8888d8ed1a63',
                                           'rs.pe0.05.thresholds': '7ceaf400e23abe2440b3398277d4c7d3b6015e4268369993f1813361ecd02633'}},
            'sweep': {'exit': 0,
                      'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                      'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                      'files': {'sweep.csv': 'b6a76689d40c81a6c3eb1af352a7e9d3f50ea66b03302bc3a7313d46f41ed20e',
                                'sweep.csv.manifest.json': '52a2d2cad77e1df168d8a2c07e3ec6332bd29b99705c52e2eee3576897f71ae5'}},
            'sweep_greedy': {'exit': 0,
                             'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                             'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                             'files': {'sweepg.csv': 'b32971c31d837a06e01ace68d966c60f42cc97369e03575046b2aae048dd1f87',
                                       'sweepg.csv.manifest.json': '9ed13500bf501c0ff6c9450b77f47ce8866eaeecf3341b69c46a13f68c5bc5fb'}},
            'sweep_unreachable': {'exit': 5,
                                  'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                                  'stderr': 'ac6d3ffd7c38eb2af3cc86b66b771879f76e60d17897aa222cc7704ad6c05aa9',
                                  'files': {'sweep0.csv': '4505bcdb5e63010d8c7b6687b445bf9b60b8bc3efd29d4e4e4fd316c624c5685',
                                            'sweep0.csv.manifest.json': '33a3b2fed6ef7d556e9d5d08b898a42873484d46a9610b2d4566ef4ffbf43e65'}},
            'simulate_no_jobs': {'exit': 2,
                                 'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                                 'stderr': '3b4cb860df659bccb9229507260cfabd28ea43930bf0fda2ce32fcdd088da839',
                                 'files': {}},
            'simulate_comma': {'exit': 0,
                               'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                               'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                               'files': {'comma.csv': '0846b6e8cfc1ce7ba9148155cdd7156682feea7deb55dca1a76d9b71bd0540b1',
                                         'comma.csv.manifest.json': '805229eb854c26278477f5c2862cfcb59c93581ac466a863f2a570114564ef28'}}}


def test_every_run_writes_the_golden_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)

    def capture():
        got = capsys.readouterr()
        return got.out, got.err

    assert run_all(tmp_path, capture) == EXPECTED


if __name__ == "__main__":
    import contextlib
    import io
    import pprint
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        out, err = io.StringIO(), io.StringIO()

        def capture():
            texts = out.getvalue(), err.getvalue()
            for buffer in (out, err):
                buffer.seek(0)
                buffer.truncate()
            return texts

        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            digests = run_all(Path(tmp), capture)
    pprint.pprint(digests, width=100, sort_dicts=False)
