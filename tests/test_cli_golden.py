"""Golden bytes: sha256 of CLI outputs that must stay identical across refactors.

Floats are printed with 17 significant digits, so any change in summation
order or table entries of the spectral transforms changes these digests.
The first seven digests were recorded from the implementation that used
scalar DFT loops; the criterion-6 sweep, the signed-zero grids and the SVG
from the implementation that classified one grid point at a time.  The q=5
window was re-recorded when the all-roots elimination solver replaced
continuation: against the old bytes only the n_nontrivial column changed,
upward, on 29 of 144 rows (the lower branches continuation did not reach).
"""
import hashlib

import pytest

from clocktree.cli import main

Q5_WINDOW = ("--l1min", "0.40", "--l1max", "0.52", "--l2min", "0.30", "--l2max", "0.56")
Q5_PROBE = ("probe", "--q", "5", "--lambda1", "0.5", "--lambda2", "0.45", "--levels", "400")

GOLDEN = [
    (("sweep", "--q", "4", "--res", "40"),
     "31a4eb38f308ed63db5e5fa3fd5660f85d419900cadf273359635326b8ce11c4"),
    (("sweep", "--q", "5", "--res", "12") + Q5_WINDOW,
     "312f4b29588fdf35bf673e263529e9506318b66bd096cc2e64784bb18ab72fd8"),
    (Q5_PROBE + ("--u", "1"),
     "9c4e785b6cf4acbe0af17c93ebf67c676770ad0a2a34dd9b59a30865669e90bb"),
    (Q5_PROBE + ("--u", "0.01"),
     "f03ed551b8117ebadc7c2ce5795f5f5daa6ebc73c36f684e8e762bd22d479cfd"),
    (("matrix", "--q", "6", "--potts", "--beta", "0.7"),
     "9aa11a4ce9f922437fa48119003f9063c2c3c80f568091efcd1715b850a068d4"),
    (("matrix", "--q", "9", "--potts", "--beta", "0.7"),
     "2d8ab31a2a65ab31de4f28533d72bc08b46773b7d44c0f269fe923ee80c4dee2"),
    (("matrix", "--q", "12", "--potts", "--beta", "0.7"),
     "b69a252d35ffdac171ad913cef52443b246b64b3984626b9611e847f22e1c35d"),
    (("sweep", "--q", "4", "--res", "200"),
     "753793092215285562159d5f39855658b45f520e6bd1e24c3c4326e3da99823a"),
    # np.linspace(-0.0, -0.0, 2) and np.linspace(0.0, -0.0, 2) end in -0.0,
    # which the CSV prints as -0
    (("sweep", "--q", "4", "--res", "2", "--l1min", "-0.0", "--l2min", "-0.0", "--l2max", "-0.0"),
     "1adb341713544e3149103a95eb426bf29429951b776184f995df90cdcb7f72fb"),
    (("sweep", "--q", "4", "--res", "2", "--l1max", "-0.0", "--l2max", "-0.0"),
     "13e0a12733bef11e032689db83edcc81f045cbae37ea6296fba29deee1cd1756"),
]


IDS = ["sweep-q4", "sweep-q5-window", "probe-q5-u1", "probe-q5-u0.01",
       "matrix-potts-q6", "matrix-potts-q9", "matrix-potts-q12", "sweep-q4-criterion6",
       "sweep-q4-signed-zero", "sweep-q4-signed-zero-lambda1"]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=IDS)
def test_cli_output_bytes(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sweep_svg_bytes(tmp_path, capsys):
    path = tmp_path / "q4.svg"
    assert main(["sweep", "--q", "4", "--res", "24", "--svg", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "58eb9361498ff2de14ddde5a63e87cb202612b5373ce1e393d34ff1771cd91cf"
