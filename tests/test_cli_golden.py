"""Golden bytes: sha256 of CLI outputs that must stay identical across refactors.

Floats are printed with 17 significant digits, so any change in summation
order or table entries of the spectral transforms changes these digests.
The first seven digests were recorded from the implementation that used
scalar DFT loops; the criterion-6 sweep, the signed-zero grids and the SVG
from the implementation that classified one grid point at a time.  The q=5
window was re-recorded when the all-roots elimination solver replaced
continuation: against the old bytes only the n_nontrivial column changed,
upward, on 29 of 144 rows (the lower branches continuation did not reach).
The probes whose states fall into a cycle longer than one level, the
`classify` scans and the `potts --bl` rows were recorded from the
implementation that iterated every probe level, tried four boundary-law
conventions, and classified the lambda1 = 1/2 quartic only as computed.
"""
import hashlib

import pytest

from clocktree.cli import main

Q5_WINDOW = ("--l1min", "0.40", "--l1max", "0.52", "--l2min", "0.30", "--l2max", "0.56")
Q5_PROBE = ("probe", "--q", "5", "--lambda1", "0.5", "--lambda2", "0.45", "--levels", "400")
Q5_CYCLE = ("probe", "--q", "5", "--lambda1", "0.4", "--lambda2", "0.05", "--u", "1")
POTTS_BL = ("potts", "--q", "5", "--bl")

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
    # the state first repeats at level 151 (period 3 from level 148)
    (("probe", "--q", "4", "--lambda1", "0.55", "--lambda2", "0.35", "--u", "1", "--levels", "400"),
     "4c0c9fecd27a88a8d35c6f4c45f09c93a3341b2f8cb3a193aeddbc1afd60e94b"),
    # period 8 from level 158: 162 levels end before the first repeat at
    # 166, 171 levels end five levels into the replayed cycle
    (Q5_CYCLE + ("--levels", "400"),
     "7a5b2ea88da646ea8aa4e5106673d1b91857eeb57c559f47d60e819297e22c13"),
    (Q5_CYCLE + ("--levels", "162"),
     "2a566686ba4e1609647b569232704478014a878e42653c6a244ab0b1f37170e7"),
    (Q5_CYCLE + ("--levels", "171"),
     "eefaea184651553107c7f43c9089d2bc84fef8748368715e645fd688fec0a406"),
    # period 4 from level 222
    (("probe", "--q", "4", "--lambda1", "0.55", "--lambda2", "0.2", "--u", "0.01", "--levels", "400"),
     "a3375b6c842d73f66ecda772f7e04e85d6640ea992427a9708e071affe41def3"),
    # three children: period 2 from level 342
    (("probe", "--q", "5", "--lambda1", "0.3", "--lambda2", "0.2", "--u", "1", "--levels", "400",
      "--children", "3"),
     "2bce644db20e198bf33fd259b59c02c4b7322468fbd61a001edb4af5b600408a"),
    (("classify", "--scan", "0:1:0.0005"),
     "691095fd5a40eaa2646969991029844be7a980c2f184ea0f6829d18b353efb35"),
    (("classify", "--scan=-1:0:0.001"),
     "36e6d3face97bd04dfbff7ff83f0eff8c0211a33ae51ab408d651ee22d4e0c6e"),
    # down to 1e-25, where the quartic's own invariants are still normal floats
    (("classify", "--scan", "1e-25:1e-22:1e-25"),
     "704f38ccba1fe47154b5a5fe257ac8f7f5453ecbc670e1dffbae415aa23ce862"),
    (POTTS_BL + ("0.4444444444444444",),
     "aa599846122659f3639886ef9f5b11cb85063117563637ee1fba1040bf86246f"),
    (POTTS_BL + ("0.45",),
     "260830025d324a4d3a464796d957b41006cddc039dc3d167737ed607cdfc39ca"),
    (POTTS_BL + ("0.47",),
     "093f35861e5fbe8cb24e8f0754b29cd3b916585ccaf95084e8f754238883655e"),
    (POTTS_BL + ("0.4999999",),
     "f83ab6621b00c02f38b1d421a2e06c706b83e131624fd08cd80f91c94fb4bd1c"),
    (POTTS_BL + ("0.4",),
     "0f3d8dbbd1a34999c00df6b89b21c59468cc3ea0fb8aa199751d652b62f219a9"),
]


IDS = ["sweep-q4", "sweep-q5-window", "probe-q5-u1", "probe-q5-u0.01",
       "matrix-potts-q6", "matrix-potts-q9", "matrix-potts-q12", "sweep-q4-criterion6",
       "sweep-q4-signed-zero", "sweep-q4-signed-zero-lambda1",
       "probe-q4-period3", "probe-q5-period8", "probe-q5-before-repeat", "probe-q5-mid-cycle",
       "probe-q4-u0.01-period4", "probe-q5-children3-period2",
       "classify-scan", "classify-scan-negative", "classify-scan-tiny",
       "potts-bl-edge", "potts-bl-0.45", "potts-bl-0.47", "potts-bl-near-half", "potts-bl-none"]


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
