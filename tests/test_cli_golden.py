"""Golden outputs of the command line.

Each call's exit code and the sha256 of its stdout were recorded from
the program before `solve` moved onto the closed-form Gleason
coefficients; the `code` calls were recorded before the GF(2) weight
enumeration moved onto cache-sized blocks.  Any change to what a command
prints or how it exits fails here; a deliberate change re-records the
digest and says why.
"""

import hashlib

import pytest

from minshadow.cli import main
from minshadow.gf2 import (NEIGHBOR_TABLE, format_generator_file, neighbor,
                           reference_code_46)

FAMILIES = ("24m+2", "24m+4", "24m+6", "24m+10", "24m+22")
UNIQUE = ("24m+2", "24m+4", "24m+10")
MIN_M = {"24m+22": 0}


def _calls():
    calls = []
    for tag in FAMILIES:
        for m in (MIN_M.get(tag, 1), 4, 9, 18):
            for fmt in ("json", "text"):
                calls.append(("solve", "--family", tag, "--m", str(m),
                              "--format", fmt))
    # beta at both ends of the interval, one inside and one past each end
    for tag, m, betas in (("24m+6", 1, (0, 1, 3, 4, 5)),
                          ("24m+6", 2, (11, 12, 43, 44)),
                          ("24m+22", 0, (0, 1, 38, 39)),
                          ("24m+22", 1, (9, 10, 36, 442, 443)),
                          ("24m+22", 2, (103, 104, 200, 4841, 4842))):
        for beta in betas:
            for fmt in ("json", "text"):
                calls.append(("solve", "--family", tag, "--m", str(m),
                              "--beta", str(beta), "--format", fmt))
    for tag in ("24m+6", "24m+22"):
        for m in range(7):
            calls.append(("beta-range", "--family", tag, "--m", str(m)))
        calls.append(("beta-range", "--family", tag, "--m", "3",
                      "--format", "text"))
    for tag in FAMILIES:
        for m in range(4):
            calls.append(("tables", "--family", tag, "--m", str(m)))
        calls.append(("tables", "--family", tag, "--m", "2", "--format", "text"))
    for n in (2, 4, 22, 24, 26, 30, 46, 70, 1000, 7):
        calls.append(("bounds", "--n", str(n)))
    calls.append(("bounds", "--n", "46", "--format", "text"))
    for tag in UNIQUE:
        for m_max in (5, 12):
            calls.append(("scan", "--family", tag, "--m-max", str(m_max)))
        calls.append(("scan", "--family", tag, "--m-max", "5", "--format", "text"))
    return calls


CALLS = _calls()


def _support(i: int) -> str:
    return ",".join(str(p) for p in NEIGHBOR_TABLE[i][0])


def _code_calls():
    # the JSON echoes the file name, so the files are named relative to
    # the working directory the test runs in
    calls = []
    for fmt in ("json", "text"):
        calls.append(("code", "table1", "--format", fmt))
        calls.append(("code", "c46", "--format", fmt))
        for name in ("c46.gen", "n36.gen"):
            calls.append(("code", "verify", "--gen-file", name, "--format", fmt))
            calls.append(("code", "shadow", "--gen-file", name, "--format", fmt))
        calls.append(("code", "neighbor", "--gen-file", "c46.gen",
                      "--support", _support(2), "--format", fmt))
        # a [46,23,8] neighbour of N46,1 with beta = 34, outside the table
        calls.append(("code", "neighbor", "--gen-file", "n36.gen",
                      "--support", _support(2), "--format", fmt))
    # no integer beta fits this neighbour of N46,1: exit 1, empty stdout
    calls.append(("code", "neighbor", "--gen-file", "n36.gen",
                  "--support", _support(1)))
    return calls


CODE_CALLS = _code_calls()

# " ".join(argv) -> (exit code, sha256 of stdout)
GOLDEN = {
    "solve --family 24m+2 --m 1 --format json":
        (0, "ad2bbaac8d501492c6eb544b8548a0ff6ac32cfca863b6b8310d196ea5af8110"),
    "solve --family 24m+2 --m 1 --format text":
        (0, "861dafa3f69fdb3bd81ca140d88ff81f441f68f90441c6b660c09ce76980e08d"),
    "solve --family 24m+2 --m 4 --format json":
        (0, "c5b0d1058a1986f5ab367fd32489e4cdbe795eb30612069a8b9ee4404975f1c3"),
    "solve --family 24m+2 --m 4 --format text":
        (0, "0196ab21e8f737a3a40482b53aef0987eae8a85cedea44a236b8bac957c7bcba"),
    "solve --family 24m+2 --m 9 --format json":
        (0, "5e6cea0df0a97b2b94057a6388c5dc07e86f426f8823b7b542f03f942516fced"),
    "solve --family 24m+2 --m 9 --format text":
        (0, "3a34b4fdfc2fdf330741b248c595d04297723a423661bd73c869d845ce42de26"),
    "solve --family 24m+2 --m 18 --format json":
        (0, "cfb49e0ba99d126fdc306446e3a624efed704826b0c63ca803f7f6fe49a0c39f"),
    "solve --family 24m+2 --m 18 --format text":
        (0, "1dfb8203f839fca6ef29a624d2bb444d3f5d50d8afb446560649ed9d3e81752c"),
    "solve --family 24m+4 --m 1 --format json":
        (0, "df788db40dcf70cd53f65d9ecf75d88e891c9c89b31e07381161af13da21a3d3"),
    "solve --family 24m+4 --m 1 --format text":
        (0, "87948e2d0011feb5df3bb26579ca57a75c71f2dcbf12211078160abe49c2ca1e"),
    "solve --family 24m+4 --m 4 --format json":
        (0, "716e3e4c89a03107307d2780d720a29122e710af03c493080eb7d4fe55b63bfd"),
    "solve --family 24m+4 --m 4 --format text":
        (0, "66d23286b5fee6161a60fcf79be72c7d21e59e020be65928b9e2dbc95364e69b"),
    "solve --family 24m+4 --m 9 --format json":
        (0, "d6b327706bb57c828d07462ab053b2347a9d8dc453dc515bd22939ac96dc6e90"),
    "solve --family 24m+4 --m 9 --format text":
        (0, "3c826e0507b462658932db0a11c06e31d54ddf755db1a780d59ebce82b14061e"),
    "solve --family 24m+4 --m 18 --format json":
        (0, "a4e328975ac5567549df1fb1a62bcbaf0d7a630ad8f23d407ee3596102f096f6"),
    "solve --family 24m+4 --m 18 --format text":
        (0, "354341db845b66cdd2999ef9a94f6f2847e03d231d1d8769cbc98ffbed80fa9f"),
    "solve --family 24m+6 --m 1 --format json":
        (0, "39aff25a24fe0aa52cb1199424295e8446c8e24aabc12eed318e552b56dba348"),
    "solve --family 24m+6 --m 1 --format text":
        (0, "57be660be39cb362d33a9d09209af605c85c747c40a3917009b3942bba45bc7b"),
    "solve --family 24m+6 --m 4 --format json":
        (0, "093a933fcf79e4073241f5ff7538c5b474cb95eae0581d69ee8ba88336cc5c7d"),
    "solve --family 24m+6 --m 4 --format text":
        (0, "de7e1fe52dcb32382ec411c1d579b4c722ab6af2b0c9f4490617e00b2d6925bc"),
    "solve --family 24m+6 --m 9 --format json":
        (0, "09a1a2ed63792fc7bfdf64a910580ebb06233efdfda42e9ca82c2b3f864befe2"),
    "solve --family 24m+6 --m 9 --format text":
        (0, "047642dd6d785be1e9c914ec0ea0ad2b6630b95212e56600e4b6f22a1600d1d8"),
    "solve --family 24m+6 --m 18 --format json":
        (0, "e1026c90d6025a57464917ed05eeaf8b3b5b8db7cc8ece40605ba1313c519c37"),
    "solve --family 24m+6 --m 18 --format text":
        (0, "0e131892cce32a079bbe123a4f839985b1eff62e54f1340450e16506ef56551b"),
    "solve --family 24m+10 --m 1 --format json":
        (0, "04b3d2792b7655332f296b6793b0fc8e250418490cb32ae4f11e079fe31bdc42"),
    "solve --family 24m+10 --m 1 --format text":
        (0, "efe7c096262dcce181dab1d36597d6d49a7bd45cc686d5fe824348858ce46bf7"),
    "solve --family 24m+10 --m 4 --format json":
        (0, "9e00fc3e3bae7b938de88405df73768fc51f336610bc769d0e6a0c1b1c282d4f"),
    "solve --family 24m+10 --m 4 --format text":
        (0, "d159a58321d771edf4e825f1ff7a8735b60a2daa7f97c4031abb02ef3e17a245"),
    "solve --family 24m+10 --m 9 --format json":
        (0, "c5c66456edb1d3928827d728820c0abedfb4403e84d2d121d24e0ded8adbbfc9"),
    "solve --family 24m+10 --m 9 --format text":
        (0, "382048de235abc4733b57787b82674f9bd565e6bbda35cb19560f3730c07b1f9"),
    "solve --family 24m+10 --m 18 --format json":
        (0, "c8d83dbb5ffcfe82984c93e56bdc87f7f9f2dc7faa17c6ac527958b8201a5593"),
    "solve --family 24m+10 --m 18 --format text":
        (0, "2460ff212f5ea582b117e7771077b71db4a8f95ddca1bf5e430082d97006c7bd"),
    "solve --family 24m+22 --m 0 --format json":
        (0, "03cf45048ea031fd9f9cc07d50169b193ec115bc11ded2a6a9d6022fb6d8ab2a"),
    "solve --family 24m+22 --m 0 --format text":
        (0, "1ca3653dda17cb28a87eccd5444659efe621398605bd45fe9c3a9346dbe998d8"),
    "solve --family 24m+22 --m 4 --format json":
        (0, "396e84a61359ab4ad5e4b06c95bb0d93bac99274ab3b9ba55c418010f0761c30"),
    "solve --family 24m+22 --m 4 --format text":
        (0, "396423578dc11d1bc4a63148fda8d4b00e33122553dbdada29f74bfe8ad91e2c"),
    "solve --family 24m+22 --m 9 --format json":
        (0, "430d4a560e6b4f3243a8fd51474a430606ffc60e555e9b82bdc21b766880dd79"),
    "solve --family 24m+22 --m 9 --format text":
        (0, "0979bd4ec22e97449dbcfbc3005f77c85948b0f3d9a76a282098f82252c7fb51"),
    "solve --family 24m+22 --m 18 --format json":
        (0, "04b48a445226331528a53dedc7f0af871e4ff2264ab667bff9acd6141445e7ac"),
    "solve --family 24m+22 --m 18 --format text":
        (0, "4b0b91a59bffdb604691aa511f17d3d835b51d1c57dc4271f1275c434fe4ce95"),
    "solve --family 24m+6 --m 1 --beta 0 --format json":
        (0, "d263600a924a1dfe931cb05fdd180410340abb07f18f081aa7d69261d5e199ef"),
    "solve --family 24m+6 --m 1 --beta 0 --format text":
        (0, "bd741e371a3e5cff95a3e95df339a329c88ab8e45da7ee2c1021fb8b269ec9fa"),
    "solve --family 24m+6 --m 1 --beta 1 --format json":
        (0, "9f7acda0b9096f97b2872960b1c8287e4d9933b60045ee710ec578a9983a02c2"),
    "solve --family 24m+6 --m 1 --beta 1 --format text":
        (0, "56c2d3b9b6e0cfcda6084bce5c6eaef403a059e5dae583d40cc4f1ed8188b1d4"),
    "solve --family 24m+6 --m 1 --beta 3 --format json":
        (0, "410300a4943f3026673a253c892db9d90629ace7fff338d3393002c801a3ee55"),
    "solve --family 24m+6 --m 1 --beta 3 --format text":
        (0, "50941e55aa7289717d252dae08765737c315155bd138c3afa4add54cdf6326ca"),
    "solve --family 24m+6 --m 1 --beta 4 --format json":
        (0, "e6a6b3ec5ac768cc02b58e7a12232ee53b71f058883859f912c546ac3dd39036"),
    "solve --family 24m+6 --m 1 --beta 4 --format text":
        (0, "43e4e69ac2157b177439bbf183428d32a1ba3c366abeeb9bf4de91273f2ffc94"),
    "solve --family 24m+6 --m 1 --beta 5 --format json":
        (0, "db23de56566e4590578195ff89552392bf808970df1a8866fb7e458e7198063d"),
    "solve --family 24m+6 --m 1 --beta 5 --format text":
        (0, "fa306ff304f273acb447317eaf79b9673a7625dd6af15c24114e45719d16a623"),
    "solve --family 24m+6 --m 2 --beta 11 --format json":
        (0, "e662731bada8b911a27255dc5aece6cf7f89b0fc39bad61fabdda94f771d48e2"),
    "solve --family 24m+6 --m 2 --beta 11 --format text":
        (0, "0a2b714da6e023e06fe9b9ed3ffafc81cbd5646f7ded1fa32b0cd8a6c7aeb6dd"),
    "solve --family 24m+6 --m 2 --beta 12 --format json":
        (0, "540108cfa4a1ec4411bccf3bbd4f0b53540f82a4c9f516070f8744f1ff5e67b9"),
    "solve --family 24m+6 --m 2 --beta 12 --format text":
        (0, "3cbf01fbe96e84d760b8c639626c4f8140dc41ba6c45bb7c69766aa9ba87b3cf"),
    "solve --family 24m+6 --m 2 --beta 43 --format json":
        (0, "ac33dcb8d652fcf75e3bf95021a05da657541705cf9cd2d2adb032fb48d170c9"),
    "solve --family 24m+6 --m 2 --beta 43 --format text":
        (0, "d13dcf74b6a3a3ea988127d55cb24a473ee5151337841472b422f82d712fd97f"),
    "solve --family 24m+6 --m 2 --beta 44 --format json":
        (0, "25af3a4b51b352d9831b24c28a13df044f4a0720b674802301eeb7e08c65ae86"),
    "solve --family 24m+6 --m 2 --beta 44 --format text":
        (0, "06bebda7b3cd1e473848fcf403efa4942507d47f383ced3385a4de08d63539be"),
    "solve --family 24m+22 --m 0 --beta 0 --format json":
        (0, "242369654dcf379b7c7272632bce819fb3af02c85f48d54ade7d598f3cceeec0"),
    "solve --family 24m+22 --m 0 --beta 0 --format text":
        (0, "6c93ac6696f696db12366147f646a2e3eaa42665a2f6884855f1dc7621483727"),
    "solve --family 24m+22 --m 0 --beta 1 --format json":
        (0, "73b2b896a458f0f76448bd45fbcccc74b2b3185d380b4982d55b13d77ae8eb90"),
    "solve --family 24m+22 --m 0 --beta 1 --format text":
        (0, "87d23bda16679e21dc1da0b5a1531d703240c3cef31d76bef9ca595eada5b6a9"),
    "solve --family 24m+22 --m 0 --beta 38 --format json":
        (0, "e3e10078357c8cb05f31918e278ed9e83df42d4844ae5a910bf2c30c4258c7ff"),
    "solve --family 24m+22 --m 0 --beta 38 --format text":
        (0, "a8d52cbe414bbc4e9f837bc0d8ed7bb0289b84e4b32755d9001252569b5d70ed"),
    "solve --family 24m+22 --m 0 --beta 39 --format json":
        (0, "aedcf4e5c5d52bea7ce1f10247a867424ca1f0c7580d6e15de727fbd54413ef0"),
    "solve --family 24m+22 --m 0 --beta 39 --format text":
        (0, "033fa6575cbbbafa34b6536f0f9c629be6931724db721cced1aed1f67514e1fe"),
    "solve --family 24m+22 --m 1 --beta 9 --format json":
        (0, "0fb173ceb4247d36e601bd6322d7b7fd8a3ca6228f472ebe99e8e936f4268e12"),
    "solve --family 24m+22 --m 1 --beta 9 --format text":
        (0, "5ed580fbf5753cf243d9818f5c5d1110d3c68f07c09caf32581be3b76583677f"),
    "solve --family 24m+22 --m 1 --beta 10 --format json":
        (0, "7cc596165ce7a9a2ba4ad3fcb35598afd916ca74f5375a567880239942c9bfad"),
    "solve --family 24m+22 --m 1 --beta 10 --format text":
        (0, "bb37376dcb97da53ff321ba76d9320eb9be618924a6da0cf7f0e25644ac71a96"),
    "solve --family 24m+22 --m 1 --beta 36 --format json":
        (0, "c02134e44b4ac42cd580ea5e34230e22ddf295cb801001f22d27ac7b2eb72207"),
    "solve --family 24m+22 --m 1 --beta 36 --format text":
        (0, "2b076de1999e809ada409beee91418aa8b44099cbc5fb07e858fd7336b7cad64"),
    "solve --family 24m+22 --m 1 --beta 442 --format json":
        (0, "8bc3be48192ab41318407a12c64aed1595381602cb175d1bbabced347252b997"),
    "solve --family 24m+22 --m 1 --beta 442 --format text":
        (0, "a678acca7686d4e8152846439b435f76060cd7a0d1786424a690c99270dcebb8"),
    "solve --family 24m+22 --m 1 --beta 443 --format json":
        (0, "7d26b5d2eb30fb8c6a1da5d94276141c7fe5a0c62788e7fe68e5346a7ad7db57"),
    "solve --family 24m+22 --m 1 --beta 443 --format text":
        (0, "fbd3acbdbade1b91623887f48047567cc90048927994c9f15aae7d4876bf1a68"),
    "solve --family 24m+22 --m 2 --beta 103 --format json":
        (0, "40f6a34b3bdbce84ffe343adc0ab9c1c28aaf016bdef6a2202afc838a82f0e94"),
    "solve --family 24m+22 --m 2 --beta 103 --format text":
        (0, "19a7fa408e9e26b6f12c709a217451b1ab8fe5d0f0c6276c3fc0db93edeb17ad"),
    "solve --family 24m+22 --m 2 --beta 104 --format json":
        (0, "f1edea0ebc87e9c9ab8a65a3cab6fbbce22c6150c141c035e467bcd19433416d"),
    "solve --family 24m+22 --m 2 --beta 104 --format text":
        (0, "e71f39dc3b7613f1d38c7475d0281ea264ede7add726ed1384115a204bb27e10"),
    "solve --family 24m+22 --m 2 --beta 200 --format json":
        (0, "d1ac8dc99a4c22e2b99ebc2ff9a76cc937c4bd5b7f604328303a5b4ef3f93b60"),
    "solve --family 24m+22 --m 2 --beta 200 --format text":
        (0, "220c55fec956bf9a7e1c1e32d1c69c6ba7060bd89437d1e0400ceff681504bb5"),
    "solve --family 24m+22 --m 2 --beta 4841 --format json":
        (0, "db255a76fecff2ae8c960ed75fd57e2c519fdc9270880c0f59aab2708b6808a6"),
    "solve --family 24m+22 --m 2 --beta 4841 --format text":
        (0, "53420f33919b398c7086cdcbacddb3f2b0d3dc005c98bcf75cafd7121b490e20"),
    "solve --family 24m+22 --m 2 --beta 4842 --format json":
        (0, "b42705db9c22addbfe05087155d35dce058517f878803b78e894393ebdff5e0d"),
    "solve --family 24m+22 --m 2 --beta 4842 --format text":
        (0, "01d39be1c3dd370f66fe8a6a165a39666ff3dae13672fc3810de717523e782d3"),
    "beta-range --family 24m+6 --m 0":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "beta-range --family 24m+6 --m 1":
        (0, "2c32c3e7354925759fa4bad515ebdb67a4692dfcc601d32b59a6ff65f5ed5763"),
    "beta-range --family 24m+6 --m 2":
        (0, "3f2a1cb92e16b2854e0b7afa28db4138e7867e953b02964702b07cd332613d06"),
    "beta-range --family 24m+6 --m 3":
        (0, "1c6728788e35a2e5c58d86a1bf640edb903316b817d57bfcfe373aae6d1f5c68"),
    "beta-range --family 24m+6 --m 4":
        (0, "0379600b633b29d57fb25d5da2950d26eea6c7d117943222b3ceeeecfb0f58eb"),
    "beta-range --family 24m+6 --m 5":
        (0, "816388dc8d540f8faa6afbb25b98b4131e5b9c9f9be1ed910abe41aef0683456"),
    "beta-range --family 24m+6 --m 6":
        (0, "7119a3082a2ee7ffa8a6acaff8e4c4b0c3e9cfa95368366d87ea6bee381a1aa9"),
    "beta-range --family 24m+6 --m 3 --format text":
        (0, "5b2c9a202af7c2d31812b7b7d458e1b203d308ed913b4a7c0de6512651efa41a"),
    "beta-range --family 24m+22 --m 0":
        (0, "f4242b0130154771d7b72886b4a03598b5c09c30e15ec023b6caaaf68bde7513"),
    "beta-range --family 24m+22 --m 1":
        (0, "ed6f3c70936d0b35e22a1df42b029e55101cb3a5debddeb45b7e5797143d4bb6"),
    "beta-range --family 24m+22 --m 2":
        (0, "873856f64e17ef5f36a5298953244c9ea150e4f8a0ba8f8026974f99ff1c3814"),
    "beta-range --family 24m+22 --m 3":
        (0, "3ce79b8ea37db421f54bbfc0e050b79bf57c0603d0e44617b80099caa852f0ec"),
    "beta-range --family 24m+22 --m 4":
        (0, "6bae6b403f0668fae372b7f695d40532ab899865444629778059bdde1ee55502"),
    "beta-range --family 24m+22 --m 5":
        (0, "706542f82d774925da993efc27d08703749e71d5fd7c0afb0ff61b48b448b866"),
    "beta-range --family 24m+22 --m 6":
        (0, "5482fe692b3f9007ea596dd6d47df78963a3d0572893b9b6f58b021664da54f2"),
    "beta-range --family 24m+22 --m 3 --format text":
        (0, "0c90f2e718bbb18f38ff9557d8ead6ec8ab02f296d1457b17ddb760837398270"),
    "tables --family 24m+2 --m 0":
        (0, "8d27a2359348f2d933076b36b25e70ff9c4c6315d9886db900fab4fbc25855b7"),
    "tables --family 24m+2 --m 1":
        (0, "1048eb122390b04e410b5bc9bec1b8bcc43988675d17d275ffeceed6d62ff734"),
    "tables --family 24m+2 --m 2":
        (0, "642ee988df58f10897777079683b57b73bd5dfbffea6c61e57ebebe020b2dd9a"),
    "tables --family 24m+2 --m 3":
        (0, "3b231c509143a3da026b5fc6f1865daf877915d54808e7a89e1b367681fad7d9"),
    "tables --family 24m+2 --m 2 --format text":
        (0, "df2d4af49fa5aa50142a91aa20ddd8a3d69fc29258a2b67ac0d2947689094599"),
    "tables --family 24m+4 --m 0":
        (0, "e5b155b8658f4c039becf8590703f70caeaffec3b36522232a149ed9803e8ec1"),
    "tables --family 24m+4 --m 1":
        (0, "21111d4316782c946313101ee5d18e717e8ef07d384ebd2a7b9b47f8e40de8b4"),
    "tables --family 24m+4 --m 2":
        (0, "06d0d9d1ee26c8a5a8f356a91ca13d9a0dbd901e637582932294dd323b551640"),
    "tables --family 24m+4 --m 3":
        (0, "7feb95b3e5bdf9597ba124b9bc77048fa986425944e70aafd589c86c49682552"),
    "tables --family 24m+4 --m 2 --format text":
        (0, "fe9a3a3585533b1050653be9372d325c4336015e470f6c82c302fb905c2085b2"),
    "tables --family 24m+6 --m 0":
        (0, "1babb5fd7cd941e63ee13ccb841adeaa1444efe291d27fae91e465aa2943b258"),
    "tables --family 24m+6 --m 1":
        (0, "fe56c47c19f7359e91c72dd11df93eb6049b80d1ae0760d079d0e1ec510e7d95"),
    "tables --family 24m+6 --m 2":
        (0, "e3240b8007bf902369784214347f8a9360f34b016df4922250faaf92e366f2cd"),
    "tables --family 24m+6 --m 3":
        (0, "9e411b68e398fc2b2779bf3267f0370c807b89b411a774805b1097eb5bd507c5"),
    "tables --family 24m+6 --m 2 --format text":
        (0, "20999196d0e963c09249fddc07f4a977be1f1724ee969433f6fe25e65932605c"),
    "tables --family 24m+10 --m 0":
        (0, "871310340ed8cf0bcd4fa7e3810b14711431cbb4505fc8e9f4e6a5e7d8762a43"),
    "tables --family 24m+10 --m 1":
        (0, "94072136296991bc05c8d96a3a0f457fb4abbbb7b3d2dc01feabf49b8280fcfe"),
    "tables --family 24m+10 --m 2":
        (0, "87c720b359654fd96ac7c5f3db98dfbbc2e6faf8e89e788102d977b3dc9c3656"),
    "tables --family 24m+10 --m 3":
        (0, "fb84ebfa74b36bce29149dc563caaea888f3bbf3624fae3e136c4a0cb6d26b15"),
    "tables --family 24m+10 --m 2 --format text":
        (0, "a4a817e90ef8572654f2d0e7a8aecfe29259b8c76472e23ce264492d83bf96e0"),
    "tables --family 24m+22 --m 0":
        (0, "f8c75d817ba96b18860b94564a595188bfa20e005fc5d69d52600a2f744babf4"),
    "tables --family 24m+22 --m 1":
        (0, "42b724ce7b7fbe9fe4040f6c91ce70e044b0061a9499e560142372182d2726ff"),
    "tables --family 24m+22 --m 2":
        (0, "59e286f9305315e66e495f6c860935ebadf1928bcf13580f7fc97b15db12f7b7"),
    "tables --family 24m+22 --m 3":
        (0, "21dc65411dcd3e16aafbace05c71dc74cb036dd533ce0155c4eef1be609c4710"),
    "tables --family 24m+22 --m 2 --format text":
        (0, "c59db38311a774cb6b6f83369a84d98645b7c074772d75e59936ac5ffc54ee28"),
    "bounds --n 2":
        (0, "22c143bf4e4062a464a840149042905e7e2a7de08a062025e640df7ac3aab6c5"),
    "bounds --n 4":
        (0, "7bf8f334df6123a66931cac03e77f678e5f427e903dbbb4b512d3daee9f45aa4"),
    "bounds --n 22":
        (0, "e8cfc43ade594adea03de1fa0d61fe87ff6a0846baa749e0d82b241142f3243f"),
    "bounds --n 24":
        (0, "7b253f758d73fa86f911424de6ba0c272ed3abfdfb9426b37be5f1bdcd63bc82"),
    "bounds --n 26":
        (0, "ac6da58d71fe5b5e6c3764268dcffcec38f52261c5f559f9c1b518b439b4253e"),
    "bounds --n 30":
        (0, "50af991d379962ce27b6b375a927402ac412c86822dc26d2bbbf3fc13d516dc0"),
    "bounds --n 46":
        (0, "833c63c1cbd70874fda5f5e86b42f3a3a5ff0fdcfb17cad8a823c6fb57474b3d"),
    "bounds --n 70":
        (0, "5751d66f6339d277494c57c074fcf69895b4aace98f8acca1fdd7be7218e2973"),
    "bounds --n 1000":
        (0, "9e8a217da01190c5c3e06b2f05a687b9afd2697c54e4c9f31ce411aca86dbf6e"),
    "bounds --n 7":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "bounds --n 46 --format text":
        (0, "74021c9ae5b51d72418bd975a2326ade8f6b6ea4f6490202ad42c71ec77c8e03"),
    "scan --family 24m+2 --m-max 5":
        (0, "a9c94fb0ca3a63f65cb268b9a871e2643cc688ded38a9c85be7e1910a5a5b424"),
    "scan --family 24m+2 --m-max 12":
        (0, "a8b63305a2ed0c53329d5caa137deb5ba888a8e93dc8a5bc45e87fe03cd1906e"),
    "scan --family 24m+2 --m-max 5 --format text":
        (0, "5f485cd554646dccae99aae9cb4a9366eb13635fa55a728441a161d30c09d55c"),
    "scan --family 24m+4 --m-max 5":
        (0, "b8d79221b0da1b1927ee40727f99f19a2a3cc7e91d8e98beead21507a8089af3"),
    "scan --family 24m+4 --m-max 12":
        (0, "691c276ba7205e9ecc4b99068c416c83f24b244420203622823e925bb429bc7e"),
    "scan --family 24m+4 --m-max 5 --format text":
        (0, "eeae6b7bb4293ab237db71682c800c825d42a67478001235bbe91349f9b21c32"),
    "scan --family 24m+10 --m-max 5":
        (0, "29386bae7b6cc7f458c384469f53dfade9e3885516951fd209b60d4daec9454e"),
    "scan --family 24m+10 --m-max 12":
        (0, "4f08b86013f190f440681ee2c5f9d0d96172cb0d5a67b0071db6059484dfd66c"),
    "scan --family 24m+10 --m-max 5 --format text":
        (0, "6b23b3b0aa1c40b38981f659bae4fe2535d917fbd6dcf3a45b957dfd50a31259"),
    "code table1 --format json":
        (0, "ad92955bdd6c459f3beb0311021a7f2687b8f0a700efac836ad7148073d0c103"),
    "code c46 --format json":
        (0, "cb831de9589d04c90fbff66896d25d69098991d566da28e45630455bfe179a23"),
    "code verify --gen-file c46.gen --format json":
        (0, "90d5e19ba8c1c15b869f395c7418cbbfb6ff544b77392b7caec0fd720cbfea9c"),
    "code shadow --gen-file c46.gen --format json":
        (0, "130ac73a00af0e51e0c60415d3b0e598f8ddc1e588f098567a3a9b3c1d61d3d5"),
    "code verify --gen-file n36.gen --format json":
        (0, "fb2c6596e6ada7e2b439d80fcbd7f58ff6140cc72ebf14bc5ba23d1df19bf77b"),
    "code shadow --gen-file n36.gen --format json":
        (0, "a0e90ca999d3a28f842af4747681663846a0764fd6f667758bc1e154eb0eca17"),
    "code neighbor --gen-file c46.gen --support 10,11,20,27,29,34,38,41,42,45 --format json":
        (0, "b4e745d592f102cc5308536d947164e6b417b11df12ea6cae9d09d118155c19e"),
    "code neighbor --gen-file n36.gen --support 10,11,20,27,29,34,38,41,42,45 --format json":
        (0, "b14723c17395f1bd0543de8669552cc75ac63fa074c0708216171436209e4bb9"),
    "code table1 --format text":
        (0, "1ef2465acb690bf3701295faf48816f83c0fe465d3b6588974b97052ce3fb486"),
    "code c46 --format text":
        (0, "cb8a8835d56f95fba3bef34c7bef23151f954da878e7c6deadf414212d40162f"),
    "code verify --gen-file c46.gen --format text":
        (0, "08742ab376ad398d2e8617a7988a0afbf726871504f845efe81fae6859273f5e"),
    "code shadow --gen-file c46.gen --format text":
        (0, "499fc79a4d6dc0e3e7e1e578c3fb75206b25d0570933fd2aedf3eeab139cadda"),
    "code verify --gen-file n36.gen --format text":
        (0, "08742ab376ad398d2e8617a7988a0afbf726871504f845efe81fae6859273f5e"),
    "code shadow --gen-file n36.gen --format text":
        (0, "b0866995579945c875e59c57c946ba255bafb7236d11e3f25ee128ceae248219"),
    "code neighbor --gen-file c46.gen --support 10,11,20,27,29,34,38,41,42,45 --format text":
        (0, "7cda28a458718da2f85944972ba2e81398f249a72b4866c54c069af293de9a59"),
    "code neighbor --gen-file n36.gen --support 10,11,20,27,29,34,38,41,42,45 --format text":
        (0, "7035e32c1ce61317249b4576b2f50d7cdc46081ed6e5f00029a9db2ec1853baa"),
    "code neighbor --gen-file n36.gen --support 1,27,28,31,33,35,36,37,42,43,45,46":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("argv", CALLS, ids=" ".join)
def test_golden_output(capsys, argv):
    code = main(list(argv))
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == GOLDEN[" ".join(argv)]


@pytest.mark.parametrize("argv", CODE_CALLS, ids=" ".join)
def test_code_golden_output(capsys, monkeypatch, tmp_path, argv):
    base = reference_code_46()
    (tmp_path / "c46.gen").write_text(format_generator_file(base))
    (tmp_path / "n36.gen").write_text(
        format_generator_file(neighbor(base, NEIGHBOR_TABLE[0][0])))
    monkeypatch.chdir(tmp_path)
    code = main(list(argv))
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == GOLDEN[" ".join(argv)]


def test_every_call_has_a_golden_record():
    assert (sorted(" ".join(argv) for argv in CALLS + CODE_CALLS)
            == sorted(GOLDEN))
