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
bytes it was loaded from.  The digests are of deflated streams, so they
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
            "a13cb46c9f11081110ee8b869b103e303276ca8ef231702261aaa3f66fdbde43",
        "partitions/p00000.part":
            "b43046be8194559f28601135577b8e03b6f575c70fd5dc13dff7367d2b6a9215",
        "partitions/p00001.part":
            "cb0ff7f23b1a8bf942a75660b5aef91eda48b78571eaa4fb38279ef2b9837b07",
        "partitions/p00002.part":
            "fd9ef81ab15139b04890f57725ac0f844a6f0fd429ecaca4b0abcd347b454bf5",
        "partitions/p00003.part":
            "d7674ac17f3fc5389963340453eaace8059bf34666737ed5c01ff7c79f0bc150",
        "partitions/p00004.part":
            "b241c447b143081740d12e2839f0322249db7c94a577057df7139643e695df22",
        "partitions/p00005.part":
            "49aa58243787ef6f72e1804eb5cc86c731fe6de5d8c31c51c470e21347d400a2",
        "partitions/p00006.part":
            "3cb8f656c537e665a62cb56cefa1f0c52402235bf6398c233c5a1f59b37b40ee",
        "partitions/p00007.part":
            "6e8c0f6c36d5b86d13cc96e03bbc69ff66445fd42c480a774be08549d2d98e6c",
        "partitions/p00008.part":
            "15d2e4d26f851cafd88cc7d87b67607028c874a0b3074f28c99371b4869fcc45",
        "partitions/p00009.part":
            "99ce9f8b2808654ca1434953e066fd58ce7826ea02eb6ef536edfd4643757327",
        "partitions/p00010.part":
            "a5b77f3fec316ec876f8e1c019cab509d5d22385da432ce7eaf4aa09ecdab257",
        "partitions/p00011.part":
            "041e5427f2382f812e2754b91eccbeff8cbf99c1b84145933bd74d3fedba9039",
        "partitions/p00012.part":
            "c565c25310c96b0ce71ba540680fb07b9ae121afb43ab26ff0e614ef238f29a4",
        "partitions/p00013.part":
            "50c7590b451eb380946cc25f017f13039f3ac91f6a8d6053c02a0c9c169f001f",
        "partitions/p00014.part":
            "3d215e0feada381f283dd9556d33e202c50dd120addefb0bc0f4da315b7c2bf6",
        "partitions/p00015.part":
            "fad9d3e69f3ff6ed6e1ea364b661d467b80a56473cba6b32dd0caec0bf67a4e1",
        "partitions/p00016.part":
            "96b91c2a17fc8892a6203f7e63de48c091cd7333c62af5054e3762b34ec4a630",
        "partitions/p00017.part":
            "723116fc1c57bd1fffd110204020a7355988c49713c2f6b50eafcb20fdc31487",
        "partitions/p00018.part":
            "15d5e6663db4361f69cce7dfb5590818af7062a46c76e07908424299c3a0e6c2",
        "partitions/p00019.part":
            "b17b8de677401bff3eef686de2db19553382cc216c4d04800fe77d62f0d89fe6",
        "partitions/p00020.part":
            "2e2ced19eeb3e6cea00098543db9660a04c692ad83e18dce58e561a07d38efec",
        "partitions/p00021.part":
            "328426ecca96c476d859d55ebf7fe2346ac27c10c12b86f411aeccd271bcdf97",
        "partitions/p00022.part":
            "5fd1fda514384f0f50bdc6400add0bb44c600c5b541cd7c72f41e759279a91bb",
        "partitions/p00023.part":
            "dac3844d5d2cd88afabeefeb1ab6a5392bd9ef93ca0f0d16a12a9afd5b35e035",
        "partitions/p00024.part":
            "039249170848ac8da87e88c7d0a08798d216a1392cda7db5d5fb54001a4955d3",
        "partitions/p00025.part":
            "3f5cee5dd12e2ab7cae55bdc9dabaf60e3100b79bcb14ff9ac571e602fe67f7a",
        "partitions/p00026.part":
            "7e1b84e1ae2f526dce6ab19392abf2e2049a8bd40165700f5f7a52087dc83461",
        "partitions/p00027.part":
            "be573948407877c313507e3dcb238917552a50fc4813de23e4c8c80a0b51e635",
        "partitions/p00028.part":
            "224b338244ca6a488b730c4ffd1b3cba412d6e9e5aa3fe9293c685f9dbb3b7c6",
        "partitions/p00029.part":
            "9e98439b8bea5db59abe86676882571ef140c2adc39970c2f0b0dc999698beed",
        "partitions/p00030.part":
            "ba9b47194ff74084b0740092789b6722fadb27938e0cb52e6cae7d286aa1f381",
        "partitions/p00031.part":
            "c9313a320670cfa314b7e467859afc2f93990d4c36f884b3286b43083854ef79",
        "partitions/p00032.part":
            "5e5100ab847b8df37762016f018369b6803284558375d95c5f77ba11b212e02f",
        "partitions/p00033.part":
            "3c247a190690c3bcd6faf6ed7552e13176790ca82de5e9c8fcb57f9030f16418",
    },
    108: {
        "global_index.json":
            "019ba36d98e7307e238f6674614b1bb1682491d0a864a3c17ddc25b3753a45b2",
        "meta.json":
            "f443f2a860ecc5e081a56b5868abda3b9767c526d5896020e3b955840e3fd833",
        "partitions/p00000.part":
            "138d48206d2251e816c89a4bf48fb5056f0d28d2d7b43a2fef28f1f4daee69dd",
        "partitions/p00001.part":
            "2feb3f4d90e7c0b72ff28f08fbc8ccd10ed2869e4f9add164e9ec32d4ea4b69c",
        "partitions/p00002.part":
            "3854ac3d0dceaaba4cdf1c7e5cc0d059dc8d27fd2d40567d75aede5224d1dd91",
        "partitions/p00003.part":
            "e5647d8199ae4e5ed24a240d745afa325688a688a1a687dc491783fd72c3f1fb",
        "partitions/p00004.part":
            "9594413298282d524b10a3ab1bce9bb07f6ed1e0b5d84431f43b511a2f2f013d",
        "partitions/p00005.part":
            "a6fd69b5f61bf9df630232b705accd562e9a55e7557c952b8b435bd277f2db52",
        "partitions/p00006.part":
            "531415a2d2deba1ee8061c5e8277d2511ef04412e8dc64b174ab6b4b2d7c4817",
        "partitions/p00007.part":
            "3e120df3869fe3176d428e62039a765d02ee468e795df2dec36b46ad5f4bab5f",
        "partitions/p00008.part":
            "178c55c98a86f7385d8b25f15c1ff0e725b65feca18fde88d51e7bf70b6a5cbd",
        "partitions/p00009.part":
            "b8a2887cd4497e684a6bbd56ddf67ea6bbcc30aabace66aa0b151450c49cb5c7",
        "partitions/p00010.part":
            "c9f191d2957116f68d48a6a6fc06557695d3c80ac70b8dac67bc361a46c34c5a",
        "partitions/p00011.part":
            "4bf3110f7d14da328260e264c2d8d851338a1f9c662e1cf1be0f21c1fef769c3",
        "partitions/p00012.part":
            "c7d5890ff5a4b86c6fa68272e0f09075ab3020b7e4cae9a5fb617d92337785df",
        "partitions/p00013.part":
            "d6613b33f54a7bd118dd95b6e40aba3592bce32e711b14f79cc6a44f70a90476",
        "partitions/p00014.part":
            "734b17988bf62df9d00df120506fd5b65c2efa7e329258ba772ea066b8a45132",
        "partitions/p00015.part":
            "a39f9427c9a9ceca719f3ab8dd14e08434adffdb0c49f8ea74065c0b1c7e7d3d",
        "partitions/p00016.part":
            "8b0a77f80cf4ac19010597b22a51b47d880d83b25d5bf7fcdb8e9062d495b250",
        "partitions/p00017.part":
            "a4f6331445ab002f4fa3e4d743e23d6ba79b157e8dd2507a3e89c0704d9d2927",
        "partitions/p00018.part":
            "3989275d03c4953cc25ed1c7ab6606b1f6b3b5e39c79b56ff233fd273ff46f9c",
        "partitions/p00019.part":
            "d79b7244aa887b52144bcffe603e59e4c139a0c43feb77f88437015135a82371",
        "partitions/p00020.part":
            "580c929e2ab83fe92f4e94a23e1785c6fa322c3189eb93d318fe69caaabb6195",
        "partitions/p00021.part":
            "1f0423d7ebe399885f53012503453fbf7e98d9d2c8fa603c0e310c3353bc10bc",
        "partitions/p00022.part":
            "48a54d4fdcf66a5298cd299c48b98fe7130393479c906d554ec0b527fe9bf7b6",
        "partitions/p00023.part":
            "ba27927261f6e7600660e29ccd4851e335d763366ac62e0d18b1d6277c234abc",
        "partitions/p00024.part":
            "e2e0d02aa7abb0b0494ec2ab6430b1671bf070706ac55477ff8a0fe408bd3279",
        "partitions/p00025.part":
            "d0fe89cd01e9caec9e24f746c3093c689a157d16e1e074bccdded5683febfd80",
        "partitions/p00026.part":
            "3926ecc80cd469b04bbb6b6f65ca0aeae2bf40a6e425b6cb466a6852babd0587",
        "partitions/p00027.part":
            "1bbfe57a034d317ba03899fbf86f8c710185532f5cd2191864baa8ac277ebea4",
        "partitions/p00028.part":
            "ce4bac83ff215012d53dbd0bac87a155be671b5473afa61fcee5164a66f9718c",
        "partitions/p00029.part":
            "f5a97cc64fb0aec17d2be34634299b076bcbd9d0608d46cc378487063c039e38",
        "partitions/p00030.part":
            "4d77c973bb4a31a4bf86a7380bfda8b951df3a9f1a6f2e541b9ca35698911fb9",
        "partitions/p00031.part":
            "4b619c42fbc7f09b2e546fcd0121f558871a667e25c98dea572cd179104d49ef",
        "partitions/p00032.part":
            "a492652d1adbadcede4076d20bebe1627489f7e732cdbf59fa323b0de19b75ca",
        "partitions/p00033.part":
            "f000ad4e3ca1ca7d9d566e63289328695f01e3dfcdacc54cba800a772020b799",
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
