"""Build pin: the saved bytes and the construction ledger of a small index.

Two small random-walk indices (seeds 97 and 108), each saved to a
directory.  Their Tardis-G is deep enough that dozens of records fall
back to an internal child and descend below it, so routing's post-
fallback rule is part of what is pinned.  The sha256 of every file in it, and the construction
ledger's stage labels, task counts, network seconds and io seconds, are
fixed values: a change to how the build routes, shuffles, orders rows,
fills Bloom filters or prices simulated bytes fails here, whatever it
does to the clock.  CPU and wall seconds are measured, so they are not
pinned.  Saving is a fixed point of loading: a loaded index saves the
bytes it was loaded from.  The digests are of deflated members, so they
assume the zlib that wrote them (the stdlib one).
"""

import hashlib

import pytest

from repro.cluster import SimCluster
from repro.core import TardisConfig, build_tardis_index, load_index, save_index
from repro.tsdb import random_walk

CONFIG = TardisConfig(g_max_size=100, l_max_size=20)

FILES_SHA256 = {
    97: {
        "global_index.json":
            "6c26c273fe21e13af7b28511e2e0110d4e565834d8373f5fb3dcc33ae68296a9",
        "meta.json":
            "2a7a54cd75486e09daf7355d1765ef7e3d05e088e85cec0a708cb5c1769cf391",
        "partitions/p00000.npz":
            "5fd047fc915005df0446fb474e2719057be18d6c23bbd4af47e8de2fba17a0ca",
        "partitions/p00001.npz":
            "acdf0c0a898473d281c93b028ffa1ccac3f0e0f7b0cd02f7fb433834ae4758fb",
        "partitions/p00002.npz":
            "d52fe188fae98c68a9c7ad3dca0fabd4812e79247149645142cb2c0b61c3db96",
        "partitions/p00003.npz":
            "16fabdc188884ae899b7f42ea82aecf0cc05c3a0cee9d2383ed9be7211ff1fa9",
        "partitions/p00004.npz":
            "79c8884b163ca2597001dd48b42226681d976f9177afb57a918888a417c6179d",
        "partitions/p00005.npz":
            "0f4ba163031318c6a203a773b17df3e0dbb993e92c3d4839f14c14abaec4abfb",
        "partitions/p00006.npz":
            "62d4a6ed0a3e9b38f02b4e3547aa38bc7a3f415935b7daf044c16f6d0faa553e",
        "partitions/p00007.npz":
            "02b7a0289b740acfed70ce91af3559aa3c27115b803b33d68bd755f2bf0dd610",
        "partitions/p00008.npz":
            "bd67f297b0906c5df1b490f88451e3862dbf11e57596218cec6c72051cdc0049",
        "partitions/p00009.npz":
            "359e55e2de3544e97a9a5bcf0e0fb9613263be4dec4942eb810aa86c1f9ab1d9",
        "partitions/p00010.npz":
            "098c261c5dd623b6e4f203456c8c94e390482cfa6270a429008e6357adea6489",
        "partitions/p00011.npz":
            "ffea48b29c08d5d954cb3fa2ac221998ae89749f46e3aa76acdec1c9767221dc",
        "partitions/p00012.npz":
            "a36870b88704d270a4a437426d35a5e529582f32bba66877c5011ffc2e995e5f",
        "partitions/p00013.npz":
            "3e0182798b62e634a331d5be97d2e574e6d61ed2a3b6fcd0e7116984620031b6",
        "partitions/p00014.npz":
            "cabb8a2de6ebe95d8a587d00ade515bbe6c5970650a5aab8185c95bf26c6b532",
        "partitions/p00015.npz":
            "40efec4d550a943ccb9125de1d9e5d287e4ae38dda530586f20cbb48b07ddbb4",
        "partitions/p00016.npz":
            "eb8ce33f257f5a57fc29907412647ecc72d7cf41be7c49673187b3e1e1f67b34",
        "partitions/p00017.npz":
            "4984a166a5880846b975ffae64c2a571b9611e2f66405a0df1bb37605b330130",
        "partitions/p00018.npz":
            "ad24ab5ffcd7b58aafbf2d7c899379fcf2017510cd9ca3bc924dfd3a29bb51ad",
        "partitions/p00019.npz":
            "c49a08fdd133e6f34eaab56874f259c50375b240752bfdf7b28b0b313c9728bd",
        "partitions/p00020.npz":
            "b05c5a97a64ed4b88d9b6cbb3c9f104f5390403319cef7aa05d96886abac2822",
        "partitions/p00021.npz":
            "a05239bf664912810a76538f133d20bf8f9cbcd75c58640f0fa82cf747e20b78",
        "partitions/p00022.npz":
            "339a196d3cb9789bedcf1f2f9a5339e86426b22537c83540e740b9355db8a023",
        "partitions/p00023.npz":
            "c9b1da3721a2dc303a9e0a5eb5fe1c2b525349c70d2f9a744a346452a9568957",
        "partitions/p00024.npz":
            "3dd7ca958cfc5691fda0b66aefbae3387160dd11bb152d643afbb8c5d7682201",
        "partitions/p00025.npz":
            "f88678523c23685dc9f0568e9f64f839dcb2d202a61a8e351b0da1a86768d10d",
        "partitions/p00026.npz":
            "bef4bba336a42352e6763295c5f0db38f64702c0d2b3292f1bd7f3478cc1dd79",
        "partitions/p00027.npz":
            "baa9fce70eaab35523dab93fc47e90d368af0f6955d3d80a227941ccb2b06119",
        "partitions/p00028.npz":
            "994c614ec9a16e2316a5a3354906dcc6c8f638c88db750bcda24ad2063b6cd02",
        "partitions/p00029.npz":
            "ebd253e518aa9309c6d34d1f3128d27917489f0aee53577a276d1cdb48696643",
        "partitions/p00030.npz":
            "b5d4dbf93dd036226a592e50bcc3423fa91c54c9929bd25903aff49d083c75df",
        "partitions/p00031.npz":
            "e3fca16ab0520e156435f04a0415dd14afd82e29eeb9badcefa2c475f7ba1ad8",
        "partitions/p00032.npz":
            "1b0aab24fc8cd16c3b414eefcb4663803aaebb7642e40b7c5cf3995b2f7f1b6f",
        "partitions/p00033.npz":
            "91c57c6ee4daf99c9576c86d852ad36e81d9327898968e76cd78654035224fe7",
    },
    108: {
        "global_index.json":
            "019ba36d98e7307e238f6674614b1bb1682491d0a864a3c17ddc25b3753a45b2",
        "meta.json":
            "2a7a54cd75486e09daf7355d1765ef7e3d05e088e85cec0a708cb5c1769cf391",
        "partitions/p00000.npz":
            "76d6d61895d3c1ca2755077fe721cb6f4b68f12a84f681e74d28a1eac78d5899",
        "partitions/p00001.npz":
            "f997a6fe3d5cf7794c33e71e1295807d35d32972c2c077a25990bbc90f4e1506",
        "partitions/p00002.npz":
            "2f1c451e85f3ee2c5df0e7db79309e15212b3348b9acd69780acd9495581cf73",
        "partitions/p00003.npz":
            "2a242d5b25760caa94fda6fdb9a5b7e26afd3ca0e028e2956f5989eb9a26047b",
        "partitions/p00004.npz":
            "fb382e86377c8bd84bbe0bc418615c14820ed3e57d1d6eb2aead5e42370ed999",
        "partitions/p00005.npz":
            "703dd2b4f8a68d6c1dd7ad3f015f0c08b6da089e9ef227ff1737c0d7d988ce34",
        "partitions/p00006.npz":
            "51db2b658ee0601b1f6931bef7617cf5ed4db12c888e490d0dcc8a7dacbf091a",
        "partitions/p00007.npz":
            "006424cd4f29069287276fae07abff4054cc2595f72a0594eb0d0fc8ec1c110e",
        "partitions/p00008.npz":
            "19d4baca6ce730bd165f6b86a712236b693dad362aa7c39d7c3cad05701447ad",
        "partitions/p00009.npz":
            "f1d765c49b6df075224be168a5aabbad4658bcd162c563711ed8754c4165f05c",
        "partitions/p00010.npz":
            "0d2e508f871a9c5329b402d8345f2c6100fbe322316f0f5dab4de82b84b9e4f2",
        "partitions/p00011.npz":
            "53acb85bde4cf77efd658f6add538eca13ba7dbce0e9c1766d8b13f1c7a81617",
        "partitions/p00012.npz":
            "0a15f88c8570a2affbd9ffe2850bc265ae72432025d0d33b7f9b6a9fc23804bc",
        "partitions/p00013.npz":
            "751857d7a369b735082325616666999cad7cc347bc0ac0f25d72e9cc87129462",
        "partitions/p00014.npz":
            "c0295bbdcef227818b4c82b2c5329e2b3ba0c239c9b85b07f04995020b5fc5a5",
        "partitions/p00015.npz":
            "1e5155208091a17fe1558e0ef2ccdd82715e1e5d7b8b64c2551370128f1a9f7d",
        "partitions/p00016.npz":
            "fbc8a735d41e073730341c993becd4116de5b3818c882f7325acde4308549e20",
        "partitions/p00017.npz":
            "01db979e1c11c74816ca8be9278680b3fa1bb1feb7ced5ccedfb48d4a52cb527",
        "partitions/p00018.npz":
            "a88e4216a4a8279256d0ba5a23719319a2697a69ea0a442e007fa37df2d0e64b",
        "partitions/p00019.npz":
            "5fde3147963e15da60246233b57bc419171ca50022389752d73c57ff2fb24898",
        "partitions/p00020.npz":
            "ff6181643f6bda6b897c693c5e1defa0d3ec2fc70b342f12835e382aa2e56b56",
        "partitions/p00021.npz":
            "e18d55dedcef842678b9a2e848d5d1cf4ace6944f7bfb3bda2211e373384fd3d",
        "partitions/p00022.npz":
            "fea86d6fe64686ae8d9a4c635760cf8bc018db117e28372174963f5f67f86c58",
        "partitions/p00023.npz":
            "a7bfb31f7fe459325bc0c3418307a8e184da01d36cb3e6b3a08271dfc40f9e6f",
        "partitions/p00024.npz":
            "8e7693806bdb13b788c2fc7416ebc58d2805d77a1cad03d2948fb3f6f4038a25",
        "partitions/p00025.npz":
            "bc486ced9c41dd0be9c8957af25f531399dd6dc90b6bb13f0ced74b82f27eb58",
        "partitions/p00026.npz":
            "2fb16f661455384c38f750a2faf05bac857591f9fbb241583a15e7d8c664e72e",
        "partitions/p00027.npz":
            "d6c6282fca5024d3f029583131923cc62758766aaa637fbac1dbadad5773ca6f",
        "partitions/p00028.npz":
            "9cbc01edbc2a75995a48a3a5d3e6b386a3b52acc7057076700302369f13267e6",
        "partitions/p00029.npz":
            "0cd97ea82e2165a1a3559f18c9bf64d8fe8c96e4282e7f32fd38c816aa253262",
        "partitions/p00030.npz":
            "139edbb6420892468542407647c981adaf2833cfe7b68f2f0791e413b8020fd6",
        "partitions/p00031.npz":
            "29ea62f19929815763b35619561294cabd7af07e4d9fb0e9448ded1843e149af",
        "partitions/p00032.npz":
            "4c3907701462fc87b1a56e5fe9aba4aa858222399c68411d9510ed689b20e40d",
        "partitions/p00033.npz":
            "3d6d7dfadca74a8b0812fb3011a073733b83b3031ca77b48d04812bfa6451362",
    },
}

#: (label, tasks, network_s, io_s), in execution order.
LEDGER = {
    97: [
        ("global/sample+convert", 6, 0.0, 0.0008265177408854167),
        ("global/aggregate/combine", 3, 0.0, 0.0),
        ("global/aggregate/shuffle", 3, 2.3651123046874996e-06, 0.0),
        ("global/aggregate/merge", 3, 0.0, 0.0),
        ("global/aggregate", 3, 5.7220458984375e-06, 0.0),
        ("global/node statistic", 1, 0.0, 0.0),
        ("global/build index tree", 1, 0.0, 0.0),
        ("global/partition assignment", 1, 0.0, 0.0),
        ("local/read data", 30, 0.0, 0.008265177408854163),
        ("local/convert data", 30, 0.0, 0.0),
        ("local/broadcast Tardis-G", 1, 5.340576171875e-08, 0.0),
        ("local/shuffle", 30, 0.0007752380371093751, 0.0),
        ("local/build index", 34, 0.0, 0.0),
        ("local/dump bloom index", 0, 0.0, 2.872149149576823e-05),
    ],
    108: [
        ("global/sample+convert", 6, 0.0, 0.0008265177408854167),
        ("global/aggregate/combine", 3, 0.0, 0.0),
        ("global/aggregate/shuffle", 3, 2.613067626953125e-06, 0.0),
        ("global/aggregate/merge", 3, 0.0, 0.0),
        ("global/aggregate", 3, 5.7220458984375e-06, 0.0),
        ("global/node statistic", 1, 0.0, 0.0),
        ("global/build index tree", 1, 0.0, 0.0),
        ("global/partition assignment", 1, 0.0, 0.0),
        ("local/read data", 30, 0.0, 0.008265177408854163),
        ("local/convert data", 30, 0.0, 0.0),
        ("local/broadcast Tardis-G", 1, 5.340576171875e-08, 0.0),
        ("local/shuffle", 30, 0.0007524070739746094, 0.0),
        ("local/build index", 34, 0.0, 0.0),
        ("local/dump bloom index", 0, 0.0, 2.869764963785807e-05),
    ],
}


def build(seed: int):
    dataset = random_walk(3000, length=64, seed=seed).z_normalized()
    cluster = SimCluster(n_workers=CONFIG.n_workers)
    return build_tardis_index(dataset, CONFIG, cluster=cluster)


def file_digests(root) -> dict:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def ledger_rows(ledger) -> list:
    return [
        (label, stats.tasks, stats.network_s, stats.io_s)
        for label, stats in ledger.stages.items()
    ]


@pytest.mark.parametrize("seed", [97, 108])
def test_saved_files_and_ledger_are_pinned(seed, tmp_path):
    index = build(seed)
    save_index(index, tmp_path)
    assert file_digests(tmp_path) == FILES_SHA256[seed]
    assert ledger_rows(index.construction_ledger) == LEDGER[seed]


@pytest.mark.parametrize("seed", [97, 108])
def test_reloaded_index_saves_the_same_bytes(seed, tmp_path):
    """save -> load -> save, twice: every file is byte-identical, so a
    round trip keeps the row order and the child order of every tree."""
    save_index(build(seed), tmp_path / "first")
    save_index(load_index(tmp_path / "first"), tmp_path / "resaved")
    save_index(load_index(tmp_path / "resaved"), tmp_path / "again")
    for name in ("first", "resaved", "again"):
        assert file_digests(tmp_path / name) == FILES_SHA256[seed], name
