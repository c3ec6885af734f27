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
The q=5 `solve` rows and the res-61 q=5 sweep were recorded from the
implementation that took every sextic root of every grid row from the
companion eigensolve.  The `potts --jacobian` profile was recorded from the
implementation that polished each lower Potts-diagonal root by damped Newton
steps before taking the Jacobian.  The SVG digests were re-recorded when
the phase diagram went from one rectangle per grid cell to one per run of
the sweep's grid, the picture, the legend, the axes and the critical line
staying as they were, and again when its rows were drawn top down instead
of bottom up, the same lines in another order.  The two `classify` rows at
single floats were re-recorded when the structure came to be decided by the
exact signs of the invariants of the printed coefficients: both had printed
DOUBLE_ROOT_PLUS inside the band where the float Delta was taken for zero,
and only their structure and roots columns moved.  The `potts --bl` rows
and the `potts --jacobian` profile were
re-recorded when both Potts-line functions came to read one square root
r = sqrt((9*lambda - 4)*(lambda + 4)) with the sign of 9*lambda - 4 exact:
the float 4/9 prints the `none` row, every moved boundary law and mode is
at least as close to mpmath's as before, and 304 of the 555 determinants
moved within `q5_jacobian`'s own rounding.  The three `matrix --potts` rows
at q = 6, 9 and 12 were re-recorded when the row transform came to read the
cosine table of the spectrum transform instead of a complex exponential
table: only the last digits of the r column moved, every entry staying
within 4e-17 of the exact row of the float spectrum.  The five `classify`
digests were re-recorded when each printed invariant (Delta, P, D, Delta0)
came to be its exact value, the integer sum that decides the structure,
rounded once to a float, instead of a compensated sum of float terms each
rounded several times: only those four columns moved (on 1,940 of the
2,001 rows of 0:1:0.0005, 992 of 1,001 of -1:0:0.001, 992 of 1,000 of
1e-25:1e-22:1e-25 and both single floats), the coefficients, structure
and roots staying byte for byte, and the printed Delta's sign can no
longer contradict the structure.  The res-61 q=5 sweep was re-recorded
when the sweep's counts came from an exact Sturm count of the sextic
instead of its companion eigensolve: one cell moved, (0.5, 0.4), from
n_nontrivial 1 to 2, as the float 0.4 lies 2.2e-17 above 2/5 and leaves a
fixed point at alpha1 of about -7e-17, which the solver takes for the
trivial one.  The q=5 window's SVG was re-recorded when the sweep came to
cut its runs at the grid cells that may hold a fold instead of in bands
around F's computed roots: the SVG draws one rect per run, so its bytes
follow the run cuts, while every grid cell keeps its colour
(`test_the_svg_paints_each_cell_in_its_regime`).
"""
import hashlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import clocktree as ct
from clocktree import cli
from clocktree.cli import main
from clocktree.svg import _MARGIN_B, _MARGIN_L, _MARGIN_R, _MARGIN_T, _REGIME_COLORS, _VIEW_H, _VIEW_W, render_phase_svg

from conftest import point_column

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
     "20c75a24058683687b9f393ead4b4e6e6fd7daf3bb07e1c46a91558531a40aea"),
    (("matrix", "--q", "9", "--potts", "--beta", "0.7"),
     "5c33d426db3d5c8b4059204304cbdc8dcfbad6f75c42e45b9764c1a838dd65ee"),
    (("matrix", "--q", "12", "--potts", "--beta", "0.7"),
     "a8c6c995a861cf0ab26cf0203d591ce7db1bac845698ab10247a3faaf3275107"),
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
     "bbb2deb30c0328ae2ca6cc3155b446c3b472789b082823d6313adb6e3b86e23e"),
    (("classify", "--scan=-1:0:0.001"),
     "2caf234f515fcf30cc6dc4ef734c27e37db7291f2c993c7012b8981df447dd65"),
    # the floats once printed as double roots of the lambda1 = 1/2 quartic,
    # near the two roots of Delta: the rounded quartic is squarefree at both,
    # NO_REAL at the first and TWO_DISTINCT at the second
    (("classify", "--lambda2", "0.37074804454085125"),
     "3e89660a8203cf4483be1249127fbe6d1d3a8fb07a431eb1fd48c69108e24476"),
    (("classify", "--lambda2", "0.49411899837411594"),
     "a358dd4f5db3c1f708fee32c3cb70e30c45c8b63fcc13ca6190f431a11058e4d"),
    # down to 1e-25, where the quartic's own invariants are still normal floats
    (("classify", "--scan", "1e-25:1e-22:1e-25"),
     "5f971e1a05739aaebf2835cbc52d4aea30637575c8790f9e8d130c7c3cea8f8a"),
    (POTTS_BL + ("0.4444444444444444",),
     "4e4c554d61c4978d5aaa6c9c122a311759674ba77f073b371a1af47ea40a3389"),
    (POTTS_BL + ("0.45",),
     "a7d900defd64043c93e78bff47a30e2eea8c02954925dfa94244c3f4cc6325bd"),
    (POTTS_BL + ("0.47",),
     "f54c2bffc68bb95d8a4de719efccf3842d8b9a9fedaeccaacb0c68861135271f"),
    (POTTS_BL + ("0.4999999",),
     "f86cde730ecf597515a4ce72347926d97e4dfbff74949852e3fa8e5ed89dc555"),
    (POTTS_BL + ("0.4",),
     "0f3d8dbbd1a34999c00df6b89b21c59468cc3ea0fb8aa199751d652b62f219a9"),
    # the q=5 roots as `solve` prints them: the Potts point, a robust point,
    # lambda1 = 1/2 with the special alpha1 = v solution at 37/96, lambda2 < 0
    (("solve", "--q", "5", "--lambda1", "0.45", "--lambda2", "0.45"),
     "cc6de05b2e235cc84d5d5f7fb81458638d909ba8af3f7f687fa246089b05a69b"),
    (("solve", "--q", "5", "--lambda1", "0.55", "--lambda2", "0.3"),
     "5c609051c0211fe60c9e3fec510cf82ac69bfff2a0ad2d26e9f16fd09b25bfe4"),
    (("solve", "--q", "5", "--lambda1", "0.5", "--lambda2", "0.45"),
     "91824e96ff63b9974cd566fdd69e9243743319f8f4315c5c327cc8f4a33c4124"),
    (("solve", "--q", "5", "--lambda1", "0.5", "--lambda2", "0.3854166666666667"),
     "d0b011f8bc6ba8cab4cfa104531eed8d91996c7f9bce4583c70c328ca3652642"),
    (("solve", "--q", "5", "--lambda1", "0.55", "--lambda2", "-0.1"),
     "28fcf34de4176408d4403d9d8b3a0762d4c9e5946a73540c26160fede2650873"),
    # the default [0, 0.6]^2, whose lambda1 axis holds 0 and 0.5 exactly
    (("sweep", "--q", "5", "--res", "61"),
     "566111baf43c333ac9eb5c81352f9fef3a1f696af2667708a08b253a17cfcf6c"),
    # det of the displacement Jacobian at the lower Potts-diagonal root, 555 values of lambda
    (("potts", "--q", "5", "--jacobian", "0.4445:0.4999:0.0001"),
     "1f4c0199e1804b88f3710fc718831806eab4efa5d69ca6713ccaaa215a6c0036"),
]


IDS = ["sweep-q4", "sweep-q5-window", "probe-q5-u1", "probe-q5-u0.01",
       "matrix-potts-q6", "matrix-potts-q9", "matrix-potts-q12", "sweep-q4-criterion6",
       "sweep-q4-signed-zero", "sweep-q4-signed-zero-lambda1",
       "probe-q4-period3", "probe-q5-period8", "probe-q5-before-repeat", "probe-q5-mid-cycle",
       "probe-q4-u0.01-period4", "probe-q5-children3-period2",
       "classify-scan", "classify-scan-negative", "classify-double-root-0", "classify-double-root-2",
       "classify-scan-tiny",
       "potts-bl-edge", "potts-bl-0.45", "potts-bl-0.47", "potts-bl-near-half", "potts-bl-none",
       "solve-q5-potts", "solve-q5-robust", "solve-q5-half", "solve-q5-special", "solve-q5-negative",
       "sweep-q5-default-res61", "potts-jacobian"]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=IDS)
def test_cli_output_bytes(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _svg_digest(tmp_path, argv):
    path = tmp_path / "phase.svg"
    assert main(["sweep", *argv, "--svg", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_sweep_svg_bytes(tmp_path):
    digest = _svg_digest(tmp_path, ("--q", "4", "--res", "24"))
    assert digest == "899cff2d172c5fdad2bb895922b8a56f3a9eea9e9115cacd76fb05546ef70f5c"


@pytest.mark.parametrize("argv,digest", [
    (("--q", "5", "--res", "12") + Q5_WINDOW, "c96c06ce92e98cacf445d70c32390d08f55251cafcab08a43e08690e8c7ae285"),
    (("--q", "4", "--res", "200"), "62fee2d0573f5b290aa587170b605a4b7f769556473c27b712f9460aec6c098c"),
], ids=["q5-window", "q4-res200"])
def test_sweep_svg_bytes_more_grids(tmp_path, argv, digest):
    assert _svg_digest(tmp_path, argv) == digest


def _cell_colours(svg, rows, cols):
    """The fill of each grid cell, row-major in (lambda1, lambda2), decoded from the plot's rects."""
    cell_w = (_VIEW_W - _MARGIN_L - _MARGIN_R) / cols
    cell_h = (_VIEW_H - _MARGIN_T - _MARGIN_B) / rows
    colours = np.full((rows, cols), "", dtype=object)
    for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}rect"):
        if el.get("fill") not in _REGIME_COLORS.values() or el.get("stroke") is not None:
            continue  # the background, the frame and the legend
        x, y, width = (float(el.get(key)) for key in ("x", "y", "width"))
        i = rows - 1 - round((y - _MARGIN_T) / cell_h)
        j, n = round((x - _MARGIN_L) / cell_w), round((width - 0.5) / cell_w)
        colours[i, j : j + n] = el.get("fill")
    return colours


@pytest.mark.parametrize("q, l1_range, l2_range, res", [
    (4, (0.0, 0.6), (0.0, 0.6), 24),
    (5, (0.40, 0.52), (0.30, 0.56), 12),
    (5, (0.40, 0.52), (0.30, 0.56), 40),
])
def test_the_svg_paints_each_cell_in_its_regime(q, l1_range, l2_range, res):
    # every cell is painted once, in the colour of its grid point's regime,
    # however the grid's runs cut its rows
    grid = ct.sweep(q, l1_range, l2_range, resolution=res)
    colours = _cell_colours(render_phase_svg(grid, l1_range, l2_range), res, res)
    want = [_REGIME_COLORS[grid.regimes[c]] for c in point_column(grid, grid.run_regime).tolist()]
    assert colours.ravel().tolist() == want


def test_every_golden_command_line_is_read_without_argparse():
    # argparse is built only for help, usage errors and the spellings the
    # reader leaves to it; every command line above is read straight from
    # cli._COMMANDS but one: its value starts with "-" and is no number, so
    # only the "--scan=value" spelling, which is argparse's, can pass it
    svg = [("--q", "4", "--res", "24"), ("--q", "5", "--res", "12") + Q5_WINDOW, ("--q", "4", "--res", "200")]
    argvs = [argv for argv, _ in GOLDEN] + [("sweep", *argv, "--svg", "phase.svg") for argv in svg]
    assert [argv for argv in argvs if cli._read_argv(list(argv)) is None] == [("classify", "--scan=-1:0:0.001")]
