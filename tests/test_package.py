import os
import pathlib
import subprocess
import sys
import textwrap

import ffspread

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_all_names_resolve():
    missing = [name for name in ffspread.__all__ if not hasattr(ffspread, name)]
    assert not missing
    assert len(set(ffspread.__all__)) == len(ffspread.__all__)


def test_commands_run_without_scipy(tmp_path):
    # scipy is a test dependency only: importing the CLI loads none of it, and
    # with every scipy import made to fail each command still succeeds
    script = textwrap.dedent("""
        import sys
        import ffspread.cli as cli
        loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
        assert not loaded, loaded
        sys.modules["scipy"] = None
        cli.write_ber_csv("ber.csv", [cli.BerRecord(6.0, 1, 10**4, 50, 5e-3, 0.0),
                                      cli.BerRecord(8.0, 1, 10**5, 30, 3e-4, 0.0)])
        for argv in (["exit", "--s", "2", "--l", "4", "--k", "2", "--samples", "64"],
                     ["predict", "--s", "2", "--l", "8"],
                     ["slope", "--s_values", "1,2", "--l_values", "4"],
                     ["simulate", "--k", "2", "--s", "2", "--l", "2", "--n", "16",
                      "--eb_n0_db", "6", "--iterations", "2", "--max_frames", "1"],
                     ["fit", "--input", "ber.csv"]):
            assert cli.main(argv) == 0, argv
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
