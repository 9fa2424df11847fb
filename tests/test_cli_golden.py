"""Byte-for-byte pins on every file the CLI writes.

Each command line below runs in-process in one scratch directory, with
relative paths, so the manifests carry no absolute paths. The SHA-256 of
every file left behind (primary output, JSON sidecar, manifest) is compared
with a digest taken from an earlier build, so a refactor of the writers,
the name parsing or the functions behind them cannot change a single byte.
"""

import hashlib

from qpcodes.cli import main

CALLS = [
    ["construct", "--family", "eh", "--r", "6", "--out", "c_eh.txt"],
    ["construct", "--family", "panchenko", "--r", "7", "--shorten", "4", "--out", "c_pan.txt"],
    ["construct", "--family", "general", "--r", "6", "--g", "3", "--shorten", "2", "--out", "c_gen.txt"],
    ["construct", "--family", "seed", "--seed", "example_9_5", "--out", "c_seed.txt"],
    ["spectrum", "--code", "pan7", "--method", "both", "--out", "s_both.json"],
    ["spectrum", "--code", "c_pan.txt", "--method", "oracle", "--out", "s_file.json"],
    ["erasure", "--code", "eh6", "--rho-min", "3", "--rho-max", "6", "--out", "e_auto.csv"],
    ["erasure", "--code", "pan6", "--rho-min", "4", "--rho-max", "6", "--exact", "--out", "e_exact.csv"],
    ["erasure", "--code", "eh6", "--rho-min", "5", "--rho-max", "6", "--sample", "5000",
     "--z", "5", "--seed", "3", "--out", "e_sample.csv"],
    ["erasure", "--code", "pan7", "--rho-min", "4", "--rho-max", "8", "--psi", "--out", "e_psi.csv"],
    ["erasure", "--code", "c_pan.txt", "--rho-min", "4", "--rho-max", "7", "--recursive", "2",
     "--digits", "9", "--out", "e_rec.csv"],
    ["table", "--which", "1", "--codes", "eh7,pan7", "--rhos", "4,7", "--samples", "5000",
     "--exact-limit", "1000000", "--seed", "4", "--out", "t1.csv"],
    ["table", "--which", "1", "--rhos", "4", "--samples", "2000", "--exact-limit", "1000000",
     "--out", "t1_default.csv"],
    ["table", "--which", "2", "--p", "1e-2", "--dplus", "3,4", "--trials", "60", "--seed", "2",
     "--out", "t2.csv"],
    ["table", "--which", "2", "--stratified", "--p", "1e-2", "--dplus", "4", "--per-stratum", "2",
     "--seed", "5", "--out", "t2_strat.csv"],
    ["table", "--which", "2", "--stratified", "--p", "1e-2", "--dplus", "3,4,6", "--per-stratum", "2",
     "--seed", "5", "--out", "t2_strat_grid.csv"],
    ["simulate", "--p", "1e-3", "--dplus", "4", "--trials", "200", "--seed", "7", "--out", "sim.json"],
    ["simulate", "--p", "1.2e-3", "--dplus", "4", "--trials", "1", "--stratified",
     "--per-stratum", "20", "--kmax", "12", "--seed", "7", "--out", "sim_strat.json"],
]

DIGESTS = {
    "c_eh.txt": "3320a22f979fdc8a138e8d99ca0a1196d12de70dd6270801a1109b45223a8bad",
    "c_eh.txt.json": "87c1c38acc93b59a9212f136a7e7b42e9522a920ced06a2b336b76735a1fca35",
    "c_eh.txt.manifest.json": "acd1e7f845894b42bca54101bbd3f15da7668858b49e90fa26623ac2e39b4e5c",
    "c_gen.txt": "487854135efdfa052906bbbe05d6a3434c81da8e1b5273c3bb1e072342819746",
    "c_gen.txt.json": "7d8cde052d9ec9261ddce89c26469491114d40964c765918ca459b4ee89b52eb",
    "c_gen.txt.manifest.json": "ef19a83f6149c107ae2c3439b91ca764a5f4cc97f9a1bddf1b8daebf0a65d4ac",
    "c_pan.txt": "a0f01a5186924bb2a91031759543da072c62a52de98a80a22f9c06d2595bd015",
    "c_pan.txt.json": "57007a75ef33640ed1e999e20a4f78769e4fcb9a31831710ee6162b01c0dc9cd",
    "c_pan.txt.manifest.json": "a63a1612c7880d43c130700beefbf4925dcfbc6894a97ba95f303ae59042aea5",
    "c_seed.txt": "37f8c71f14f6c2ed18cd9225e6a2c897a01496d8fb65266a84ec9388b8062d7b",
    "c_seed.txt.json": "6cd4cf254b77cc96a1b0498338fe74eb8e42ef8e234e6112c92eedb6e39708a4",
    "c_seed.txt.manifest.json": "e292e9c4f67caa4baea50cbff7c86625e4281530880fc8579232d238ca72bd51",
    "e_auto.csv": "d77fb627854548cdf6e12a0e9c467369f6af2d7de4b806905ae79f28f5703896",
    "e_auto.csv.json": "08e9a751e130d6211502d213b3476833e911c140b07b60a7d905940ae3474ea7",
    "e_auto.csv.manifest.json": "577644a34dc12206e718a00b39a4da0dea8eb2ca36c980da7518d2ad7bdc586e",
    "e_exact.csv": "67bc45969f4cef345377a00dc052963cf3021d5b26178315fd87e60f2bf7a3d2",
    "e_exact.csv.json": "b629780d920fe47d3fef076506c1421bed2b21a0db73e281a26dd5e64b774b93",
    "e_exact.csv.manifest.json": "34b8c78363cf70de4d4f7b5632e09b6998a5ca0609ba4950f10f65a903f41eac",
    "e_psi.csv": "05297576949ef0efb4715fd23bf13b5ab9a62af805284045a1788f893793564e",
    "e_psi.csv.json": "0f5986cb0d7489c1faacedc8d984b8ba8565db41e5595fec6c4daeca7ea7f1cd",
    "e_psi.csv.manifest.json": "cd7d46f77b16d6fba9bfa9f1818fcf211d36e7e20da8fa5e39d538db899e9a34",
    "e_rec.csv": "38513cab1c5f3c8c4fc952286c21bef64dfed2c29e7109e28788787c8bbc68d6",
    "e_rec.csv.json": "b22be0f850a1a4ec73e11bc272c5337b25635cd13feead39ce04a96f8c044b85",
    "e_rec.csv.manifest.json": "351bcb389f0d1847866dcee4258ae6c7ac0a433f016e0fa043876db4e792706d",
    "e_sample.csv": "6c2c9b826bdff27f15f78b0ff6a191797a95cff3056b28b8c3207852ec77b978",
    "e_sample.csv.json": "ab8c08e761514cd3c5518d6856ed873ed93b0547c22f4369e08fa5ae9295761f",
    "e_sample.csv.manifest.json": "573710aad678abb9064ed098e34a92c07880225eb4153c590aceb368ff98c6a7",
    "s_both.json": "1e0fda293ed7d2c6b22a43537608f0bb5cb4b7c9b5c96b304130cbb3699634a1",
    "s_both.json.manifest.json": "dbc7332e7c2054982e083fa15822f7d03d98678ac283775d5e2bcd34e8f16f4e",
    "s_file.json": "ce1a23fb7bc95818bac68c05a867d899bb67c9014ab3bb0324670ef86d6f97f2",
    "s_file.json.manifest.json": "ab8fa802d985b388faf522d937c53da0369cdba8da2947b036c70c08c25ea1be",
    "sim.json": "0841af92c559a538e7c3e20abbe803d13be44c991cfc3d3486055a443fc13601",
    "sim.json.manifest.json": "0a6f600c9c72b437c499bfb389615cbe845833a9872429fe282856770e39fcfb",
    "sim_strat.json": "3e27d128854343273b2495ed15874f93012901b535a192ce184edf609e7145ff",
    "sim_strat.json.manifest.json": "8485db37cb2d0cb35bb376fbe74ae240dbc1908786258aa67961f383e695726a",
    "t1.csv": "ff9ce6e09eaf2dc483a0b1bab02b39ce3896c604dfd0c37f7cdddc6ed60da2f0",
    "t1.csv.json": "11b60f9b0f5e4c5206df7177aa68ba7d283a2e89f5f0c61427eac083c9d2245f",
    "t1.csv.manifest.json": "8ea7fd7a81d484c24c354603fe25e77b51efbc58bbb75055d8aa0e1dc3eb3614",
    "t1_default.csv": "675133a6a52d5d6ed736400795ce62c080deea3da5f697136d5eab9883f03766",
    "t1_default.csv.json": "011a37cbd5f99e63d407668b19c638057e22c0572f38421f706d567921552386",
    "t1_default.csv.manifest.json": "a7b4b0d739dfb38db23a2cb47817c287dc64abe97bf38d244f6a9cbc76e36447",
    "t2.csv": "dc12daeeb3dcc9139e35f71451aa1e0e9183a272fa8e1fc8cc60b4bcf09e34bd",
    "t2.csv.json": "e4b5aa8c5697c657e783446f86e3c021da178863452d9a42d30456ead617acd8",
    "t2.csv.manifest.json": "4a31fcfdf4d4989f7ad8c36632a34e48641e234db2951f877417ea3a0459e4c7",
    "t2_strat.csv": "acc5dcce797b2bc84dea5ef1f14a06f3b27114cb33fd7b629635dbf28a1e5dbe",
    "t2_strat.csv.json": "76a1000111764484c48284432067ce3e3a58a03e118e7bdc627a0149c22317ae",
    "t2_strat.csv.manifest.json": "a52ae30821a277d6b846c6a5d3dba6fd45caf139223f014f2133cb2c4df645c0",
    "t2_strat_grid.csv": "a754f3ec0823e89102be61af18edc4bb34d9ba00ab8d98f9d1bf17852a7d0f96",
    "t2_strat_grid.csv.json": "f47a4342d851d82a0c638eb08fbfb988b90598fa8456b6276b8d54820f4f0a42",
    "t2_strat_grid.csv.manifest.json": "85008e0659b3d8dc1579f7a5aef589af051aadc25347a746c3fad50d23a32aed",
}


def test_every_cli_output_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in CALLS:
        assert main(argv) == 0, argv
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
    changed = sorted(name for name in got.keys() | DIGESTS.keys() if got.get(name) != DIGESTS.get(name))
    assert not changed, changed
