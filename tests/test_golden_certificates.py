"""Pinned sha256 digests of synthesized certificates.

Refactors of the synthesis arithmetic must reach the same exact values, so
the certificate text (weights, biases, thresholds, verdicts) must keep its
bytes.  The cases cover both targets, both activations and both threshold
modes on the builtin graphs and on four acceptance-criterion graphs chosen
for the round-1 dgnn6 repair they take: 0 (projection), 1 (direct route, no
repair, then the paper route), 2 and 37 (clamp columns).  Two larger ring
graphs pin the clamp search and large weights: dgnn6 on a 24-vertex ring
probes 24 clamp columns, some rejected, and gnn-minus on a 48-vertex ring
emits weights with thousands of bits.  A uniform-label 6-vertex graph pins
the paper-route projection (dgnn6 relu, round 2), which no other entry
takes, and a direct-route clamp under sign.
"""
import hashlib
import random
from fractions import Fraction

import pytest

from wlmpnn.cases import builtin_graph, sample_graph
from wlmpnn.graphs import make_graph
from wlmpnn.surd import ExactScalar
from wlmpnn.synthesis import synthesize_dgnn6, synthesize_gnn_minus
from wlmpnn.wl import wl_run


def _criterion_graph(i: int):
    """Graph i of acceptance criteria 4 and 5, drawn exactly as those tests draw it."""
    n = random.Random(i * 7919 + 13).randint(4, 10)
    return sample_graph(n, Fraction(2, 5), seed=1000 + i, alphabet=3, require_connected=True)


def _graph(name: str):
    if name.startswith("criterion"):
        return _criterion_graph(int(name[len("criterion"):]))
    return builtin_graph(name)


GOLDEN = {
    "fig1": {
        "dgnn6 relu": "bc44780651d9539fa364f4a3839b24ea7cfe40b33e43cad7635cd54916d5fff2",
        "dgnn6 relu uniform-q": "7dab90f26a00743792752ef64b2eacb13faa9ea7289605cff2929545570da775",
        "dgnn6 sign": "d3f5bbfa901dd412da7f32b7cc1acddb420720cb044f92c07e9828d8258e5f76",
        "dgnn6 sign uniform-q": "aa9d6c9af5f8d4cbb2e80464eebb30bb22c0bec92048199993bf060d2bdf83e8",
        "gnn-minus p=1/2 relu": "4e9f06e0fad3b8297894e9127767828eb74fecd71e973fa88655e16484bd639a",
        "gnn-minus p=1/2 relu uniform-q": "46ef390029a9f28263196a422d2b2db844de9209b3a1f8ccdacbd9bc5f3839da",
        "gnn-minus p=1/2 sign": "f1cadcd540418c1997cfe15ff4f3bea7c21a86bddea1d6e116c38e8b574a9ee9",
        "gnn-minus p=1/2 sign uniform-q": "6025abea02a835238212ccca764320ee419314b5bc355a7c9a8687aa7d9f8e7e",
        "gnn-minus p=1/3 relu": "4f3edb0e75a4e02341a307484439ab03d33e6582e9faf73a238ece1486bad7e3",
        "gnn-minus p=1/3 relu uniform-q": "f9b33c6860fbd603f1c026ef34283fcde4c5b4c1a00e6c825c14863f9fa617d6",
        "gnn-minus p=1/3 sign": "f2d1f8e1ec86a07032807d548f8c5632f197238ae61be1ba56344546ba601368",
        "gnn-minus p=1/3 sign uniform-q": "6e5864ddb8ad82be7d58ccbc92fc326a5dede9396c8b510c555d4670bf06d3f0",
    },
    "g1": {
        "dgnn6 relu": "759e7302f8b2ca0b53223bb8469f89cab176db83b9d6a0bca56ac008622a3e58",
        "dgnn6 relu uniform-q": "6c55ee11e8e469a38f09557ca854701733c3cd4d66cfb022b108d29c5017847b",
        "dgnn6 sign": "869df81c800d54088327cefe7617b065765def49069430c5a97dbb5020d82648",
        "dgnn6 sign uniform-q": "c7f7c9e452745c794569a3bababdca43f21c4b0decb16d3cbf012cfcb121e24d",
        "gnn-minus p=1/2 relu": "5c5d18af64a4b9f41f6d6957384d5091d6fe6ea8ba326a7879948593f1d57df3",
        "gnn-minus p=1/2 relu uniform-q": "e5996c6c067f6d344d001edf7973108887116adf9998f4aed7dd4bc86ebdbb4f",
        "gnn-minus p=1/2 sign": "44e9e39207a58ea3aeb44a7a07c0d6ce46f93ee16142cb75dd5e0e814640ed1a",
        "gnn-minus p=1/2 sign uniform-q": "d7cf114a890cb6fe402fb160bee491412a566e0ab3c1951d3cae8feaf08e8505",
        "gnn-minus p=1/3 relu": "d499c98d9a83683a1ebbcfd3f1133c38973d1074c7f21edce123b8f6ba775b47",
        "gnn-minus p=1/3 relu uniform-q": "f311aef0c793bf4a1e98751f063e07e4ccb5840a9f6a7b4532c77400d3637016",
        "gnn-minus p=1/3 sign": "23ffd03088ef56fc47148ed6e06ab7abb45ba2407dafc9c82a1d2e4eca972ca7",
        "gnn-minus p=1/3 sign uniform-q": "85bd63a2a9f272bdda9fecfaa411d774670b00ac74dd1ae468a759c987d34001",
    },
    "g2": {
        "dgnn6 relu": "4eeec466661feb44c9a50ff5e67ca6c47d6cfe12113b1247877cf2eaaa0058b5",
        "dgnn6 relu uniform-q": "7522fa5bca24bca8d2bc8e8a37a72a13857e5a10e5dea2f50b8e47febd16620e",
        "dgnn6 sign": "99000dbe20dbd1851798a9be03e5021b7d19d9ed1b0bb1c9a9c07435e5e76b31",
        "dgnn6 sign uniform-q": "ee0bf793fc739cc3fa0a838c7fb2999d055ae82285b14a09595dd15211fbf403",
        "gnn-minus p=1/2 relu": "9c1110db3f7c3295b0498e2d1677444d924ba178149f0dd2a730e1c93dfcdf84",
        "gnn-minus p=1/2 relu uniform-q": "648142a909ae73c46f998f2080fa834cdde225b7645dd71fd1b444be6995d6db",
        "gnn-minus p=1/2 sign": "ff7dd894f732da30593e81326b5fd81253c754820d165c0b12bf30571a109eeb",
        "gnn-minus p=1/2 sign uniform-q": "e7ebad767a336e28937987df1cfe84261db5d648632e8d1158a392d40905db88",
        "gnn-minus p=1/3 relu": "73cdeca8cc03fce582e3365196f6e13b982918ae11f2c9ddec161876f81f9fcf",
        "gnn-minus p=1/3 relu uniform-q": "d1cbdd3edf07ad0692297d8e9253d5284861108b3333d8b83282ba516bcfdc72",
        "gnn-minus p=1/3 sign": "7d8d3053a2320b716d0c9f2265bb6cb67567c3227edf5a57f74b130b91b98afa",
        "gnn-minus p=1/3 sign uniform-q": "4b88e09cf0ecb1718d6d7b7fc722557174229375ec06467f28f50c142c474ccc",
    },
    "g3": {
        "dgnn6 relu": "68ce4356437d418c355cde11a3560be46047bd42ebe2b87ec0ff15981224447b",
        "dgnn6 relu uniform-q": "58e124dd4365a42188cc380a5ccd999860f0ce528be3bfc35a42caa6f2946e63",
        "dgnn6 sign": "4cb3ebe73336d2430492a849c385018491dffab5c6631f53d57b6ebadc5e61ca",
        "dgnn6 sign uniform-q": "26056a71aafebe0908fa0a25e51312895e6e4514bed80d2290a057f0cd49b163",
        "gnn-minus p=1/2 relu": "b1914b4e5e277f9c37190c3eacb12ccd7a898eb921ba6657fce1a3da3731d12f",
        "gnn-minus p=1/2 relu uniform-q": "03e183a4d4bcd31a0ac0093d2b1a595a1f249a4297c5c18007e16a5418376f57",
        "gnn-minus p=1/2 sign": "762ab87e193b3d241c69bf90637186d54c32b089aad5577a2db2f5110879be29",
        "gnn-minus p=1/2 sign uniform-q": "ef516bde87af79bede7ff31d2858dd5950ba19aff887fbedd0c7f49bf15e4e46",
        "gnn-minus p=1/3 relu": "d625d2b20735b8567a981a860a7e470298e595d21ed4326ff998748d4cdb6536",
        "gnn-minus p=1/3 relu uniform-q": "d28db98b19d49d416a26a9eec10a30db43eac4e9e69b13224188eede58532f44",
        "gnn-minus p=1/3 sign": "096bad2e8e5df5e4c87be0e1b0336cb2e7876f9c20d526518eaebabd27b83705",
        "gnn-minus p=1/3 sign uniform-q": "db3f5cdbc4548c017e2dad48fea63bb1f6f76a245f9dad5debe8a020ce1517d8",
    },
    "criterion0": {
        "dgnn6 relu": "fd6f12a38e0a1c6d3a2a7341020e08004bbeff6cacc1be267c1df0ae4685742b",
        "dgnn6 relu uniform-q": "7d3dc30370da463a837624e2ac60e1c4dccd9199fb11d8fe26dd056d7323852e",
        "dgnn6 sign": "4c4026bfb4feafb83504a1ec52ac4de87821d65f03cf05327fda2580ddc795f0",
        "dgnn6 sign uniform-q": "0b8b96867a4f4f50c877dde68e7480f95e8d5c374c5c5ee2c3b2ab0fe8776f8e",
        "gnn-minus p=1/2 relu": "314117bbf18e446b23ad7d7665e96617bf5acc417a58da070dd4b226e1ccb43b",
        "gnn-minus p=1/2 relu uniform-q": "9bc7486492414d25eff1bac14808abedcf0dec007b618a8d47bfa0e98bb4590f",
        "gnn-minus p=1/2 sign": "75d89bec79396b4e8734abdb3c001d1adc79284458645c2f8ef468895f1bc3a1",
        "gnn-minus p=1/2 sign uniform-q": "15c98231cfcb0743b4464f3629b546156101f0b43a32b9921b14d8130c2adafe",
        "gnn-minus p=1/3 relu": "7240b9d54884ba5a4544024851fd09087708106b4dc1334af81a3065054407c1",
        "gnn-minus p=1/3 relu uniform-q": "3aa281552bfe185e213fd0016a2fceebf5ee09d3a870167414f8941c7b07c82b",
        "gnn-minus p=1/3 sign": "90c68d579e74953a10eb80a806727885959b05e708966605d8b0f316ac041faa",
        "gnn-minus p=1/3 sign uniform-q": "8d6ce85f4657f6763223c1493254f0a52ce0cd0a2d8a81876a005216ee355b80",
    },
    "criterion1": {
        "dgnn6 relu": "d2f099679589831413205115a8ad3059e905384bb3651d5dbc871fb202b510c2",
        "dgnn6 relu uniform-q": "f98e995fa56a5a3f7e15419038521b8a224a6614e07254623408f0699fbec24c",
        "dgnn6 sign": "728ff362cc222e5b08eb9f819e792188d29ebf895c165f3d2e84f32fd87a2f8e",
        "dgnn6 sign uniform-q": "e1fe9692fc4c3e2b145cf577db2112ff6f28ff3cf359f0edc85ba4d9cbea8ce9",
        "gnn-minus p=1/2 relu": "6b600cd42e52a3254dab9c15d08d484dd2b3eeb15356081274d87259708599cb",
        "gnn-minus p=1/2 relu uniform-q": "bea011c760cf8da3ab16cd78f5d3aad37f0cc3accbbfbf73ab07e6486a496d87",
        "gnn-minus p=1/2 sign": "c4fee5f83eeb0b876d22138c3e6592f3149b1011b0af710a52dd689ac71b9864",
        "gnn-minus p=1/2 sign uniform-q": "ec332dbff69314d1b22351fe6c709c37edcc40ea0143e09c16f2fdd2d3c3492e",
        "gnn-minus p=1/3 relu": "b31f3acfd378f42717d54e9c6f18ee768d02410e07144aa8e7a13a87e46df4bb",
        "gnn-minus p=1/3 relu uniform-q": "54a73d5916140b6f801e84e11e0528add2458ca22911c08df5ce0350ef62fdf9",
        "gnn-minus p=1/3 sign": "5d06d0ea58ec9d9bbc46577b5c5a01eb326333e10d615b1ee510ac14c621d47b",
        "gnn-minus p=1/3 sign uniform-q": "790961a80851f6a6e5d733d0da3fb75b228289a266bf2ffd72fc3bdaebeb46e2",
    },
    "criterion2": {
        "dgnn6 relu": "a534628f3d61301e828b34c656c1eace431b8ff8fcd235dd030f8334db5234f9",
        "dgnn6 relu uniform-q": "f89f71729a6df57dfc80d88b8d1f53ff466d9460471a3a3cd027c4dedf788ad8",
        "dgnn6 sign": "bc752e95b6008c1937fdefbb9337c8c1b6012b5ab9841663132a9e1e2eda80ba",
        "dgnn6 sign uniform-q": "a467ee80a085e610c882d2f78bb6f83816c6a9305b30ea7135c9cdfe0b5b34cc",
        "gnn-minus p=1/2 relu": "2d208342951d03e0e34bd6fd8008a761fb54556247b33d03636379c1a2e13696",
        "gnn-minus p=1/2 relu uniform-q": "c4ebfb090b3e0426f48a501801b9cfaab90e3d0fd54929b2afc3238a92e51dfe",
        "gnn-minus p=1/2 sign": "d384a167f54bd7e9618eb34096142cc388048f675e1efafa439dae39a1d0b8f6",
        "gnn-minus p=1/2 sign uniform-q": "0d563720ee5494d2bd205728c178beed3b4a8f30ad3ce9a81125d27651b6789b",
        "gnn-minus p=1/3 relu": "ef8e133daa84998b7c6c875859917d28e80da766d59a54ff2d7bd090058f790c",
        "gnn-minus p=1/3 relu uniform-q": "264262877424de46c583d1f41803d536ad533a5b0e1b8606a1c039ca2f04960c",
        "gnn-minus p=1/3 sign": "a58358a6fc162e961d777a94e770603735efb78b64082a2ad9c504571a489b21",
        "gnn-minus p=1/3 sign uniform-q": "0922e903fa18f5ac5d302505c2838db29623cc8f8fc4397a70cd2edff187b0b2",
    },
    "criterion37": {
        "dgnn6 relu": "777e4830c91faaf392f34a6b8261c61e51bcd20b9e20a093d1ca682e426e0747",
        "dgnn6 relu uniform-q": "32820e37b3c01a073fc7d760c1a2479f91c59931242400655048ceeacf711f2f",
        "dgnn6 sign": "ccf24321f65b3c338687a6b590dc49e41cec4f459059e3f980cb7acba6bbab94",
        "dgnn6 sign uniform-q": "45ea1a9832a79369c5f99f445dfd9a5b32cb8a7e1bc0b14e1861001f21bb271c",
        "gnn-minus p=1/2 relu": "2ad6191fa8e1d1476023a2372651ec03bf9a5a44861831049507fb1e6cb16be2",
        "gnn-minus p=1/2 relu uniform-q": "876b21fe108b7ec57d592fe403114cf4aec74f325092a8a389bc3911cf51130c",
        "gnn-minus p=1/2 sign": "1955c939daaf8d42f740c947a1ddf2f6c40339e013c625f6d9cd76c5984e5a32",
        "gnn-minus p=1/2 sign uniform-q": "2e2b47c4c6737f3c67f0a0a087b00861cbae7197af7494455bf98daa3caa879b",
        "gnn-minus p=1/3 relu": "ef1c13bcb5bc5f54d9bd33f00b2a61ec0fff05b213cc44ca3bdb67bd6004b77e",
        "gnn-minus p=1/3 relu uniform-q": "8422ffb5a137553ac64bcc01ed6c8404bfbc1f56ed5a69085f903b97a5972d72",
        "gnn-minus p=1/3 sign": "e2eada43c8b878094af9183b0ebe267cb55617ac31131e7c4ad2b4b4f61bf8da",
        "gnn-minus p=1/3 sign uniform-q": "fd8cca501e40d53fb040cd66a995716da517594a75e02e17c7cb2b8a0cdcec3c",
    },
}


def _certificates(g):
    rounds = wl_run(g).stabilized_at
    for sigma in ("relu", "sign"):
        for uniform_q in (False, True):
            suffix = f" {sigma}" + (" uniform-q" if uniform_q else "")
            for p in ("1/2", "1/3"):
                yield f"gnn-minus p={p}" + suffix, synthesize_gnn_minus(
                    g, rounds, sigma, p=ExactScalar(Fraction(p)), uniform_q=uniform_q
                )
            yield "dgnn6" + suffix, synthesize_dgnn6(g, rounds, sigma, uniform_q=uniform_q)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_certificate_bytes_are_pinned(name):
    digests = {
        case: hashlib.sha256(cert.to_json_text().encode()).hexdigest()
        for case, cert in _certificates(_graph(name))
    }
    assert digests == GOLDEN[name]


def _ring(n: int):
    """An n-cycle plus n distinct random chords from random.Random(n), with
    one-hot labels over 3 letters (perfbench's cycle_plus_chords)."""
    rng = random.Random(n)
    edges = {(v, v + 1) for v in range(1, n)} | {(1, n)}
    while len(edges) < 2 * n:
        u, v = rng.sample(range(1, n + 1), 2)
        edges.add((min(u, v), max(u, v)))
    labels = [tuple(1 if j == c else 0 for j in range(3)) for c in (rng.randrange(3) for _ in range(n))]
    return make_graph(n, sorted(edges), labels)


RING_GOLDEN = {
    ("dgnn6", 24, "relu"): "7ff8674886d1beeec5976bb527d3124856286551ed899f3e66a21bba0c19cdd8",
    ("dgnn6", 24, "sign"): "3b11f26413205e47158e1052d27ab709cbae762d819df3fae91c6dd3e2c06834",
    ("gnn-minus", 48, "relu"): "b47d6c7ceac8c1ed00c9eaab5eafd01ca022c1a375f32a6fd20d4d5a12c554f8",
}


@pytest.mark.parametrize("target, n, sigma", sorted(RING_GOLDEN))
def test_ring_certificate_bytes_are_pinned(target, n, sigma):
    g = _ring(n)
    rounds = wl_run(g).stabilized_at
    synthesize = synthesize_dgnn6 if target == "dgnn6" else synthesize_gnn_minus
    cert = synthesize(g, rounds, sigma)
    assert hashlib.sha256(cert.to_json_text().encode()).hexdigest() == RING_GOLDEN[target, n, sigma]


PAPER_PROJECTION_GOLDEN = {
    "relu": "a4a7fbd18033dd7fa2d37d3b0b590a812ea298c1a8bfaac7460eae7e6e6b9db1",
    "sign": "16f2ee789b3a5c83b6f651928ea9b46db4a9058f99c1830d50910cbbfe4bd999",
}


@pytest.mark.parametrize("sigma", sorted(PAPER_PROJECTION_GOLDEN))
def test_paper_route_projection_bytes_are_pinned(sigma):
    g = make_graph(6, [(1, 2), (1, 4), (1, 5), (2, 3), (2, 6), (3, 4), (4, 5)], [(1,)] * 6)
    rounds = wl_run(g).stabilized_at
    assert rounds == 4
    cert = synthesize_dgnn6(g, rounds, sigma)
    t, route_repair = (2, ("paper", "projection")) if sigma == "relu" else (1, ("direct", "clamp"))
    assert (cert.rounds[t - 1].route, cert.rounds[t - 1].repair) == route_repair
    assert hashlib.sha256(cert.to_json_text().encode()).hexdigest() == PAPER_PROJECTION_GOLDEN[sigma]
