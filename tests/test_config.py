import pytest

from torqueprune.config import (
    ConfigError,
    TrainConfig,
    config_hash,
    load_config,
    parse_config,
    schedule_for,
    with_overrides,
)

MINIMAL = """
arch = mlp:2-8-2
dataset = two_spirals
"""


def test_minimal_config_gets_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.arch == "mlp:2-8-2"
    assert cfg.dataset == "two_spirals"
    assert cfg.epochs == 50
    assert cfg.batch_size == 32
    assert cfg.optimizer == "sgd_momentum"
    assert cfg.schedule == "constant"
    assert cfg.scheme == "none"
    assert cfg.reg_coefficient == 0.0
    assert cfg.exp_base is None
    assert cfg.indexing == "natural"
    assert cfg.prune_mode == "threshold"
    assert cfg.seed == 0


def test_unknown_key_named_in_error():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "foo = 1\n")
    assert "foo" in str(err.value)


def test_scientific_notation_floats():
    cfg = parse_config(MINIMAL + "reg_coefficient = 5e-4\n")
    assert cfg.reg_coefficient == 0.0005


def test_comments_and_blank_lines():
    cfg = parse_config(
        """
        # full-line comment
        arch = mlp:2-4-2

        dataset = two_spirals  # trailing comment
        epochs = 7
        """
    )
    assert cfg.epochs == 7
    assert cfg.dataset == "two_spirals"


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "epochs = 3\nepochs = 4\n")
    assert "epochs" in str(err.value)


def test_line_without_equals_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "just words\n")
    assert "key = value" in str(err.value)


def test_missing_required_keys():
    with pytest.raises(ConfigError) as err:
        parse_config("dataset = two_spirals\n")
    assert "arch" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config("arch = mlp:2-2\n")
    assert "dataset" in str(err.value)


def test_bad_int_names_key():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "epochs = soon\n")
    assert "epochs" in str(err.value)


def test_bounds_validation():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "epochs = 0\n")
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "batch_size = 0\n")
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "prune_target = 0.5\n")
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "reg_coefficient = -1\n")
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "log_norms_every = 0\n")
    for line in ("seed = -1", "data_seed = -1", "indexing_seed = -2", "noise = -0.5"):
        with pytest.raises(ConfigError, match=line.split()[0]):
            parse_config(MINIMAL + line + "\n")


@pytest.mark.parametrize("line", ["t_max = -5", "finetune_epochs = -1", "prune_threshold = -1"])
def test_negative_bound_fails_at_load(line):
    with pytest.raises(ConfigError, match=line.split()[0]):
        parse_config(MINIMAL + line + "\n")


def test_enum_validation_names_value():
    for line, fragment in [
        ("optimizer = lbfgs", "lbfgs"),
        ("schedule = exponential", "exponential"),
        ("scheme = dropout", "dropout"),
        ("indexing = sorted", "sorted"),
        ("prune_mode = global", "global"),
        ("task = ranking", "ranking"),
    ]:
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + line + "\n")
        assert fragment in str(err.value)


@pytest.mark.parametrize(
    "key,lines",
    [
        ("gamma", "schedule = multistep\ngamma = 2"),
        ("gamma", "schedule = step\ngamma = 2"),
        ("milestones", "schedule = multistep\nmilestones = 5,2"),
        ("milestones", "schedule = multistep\nmilestones = -3,2"),
        ("step_size", "schedule = step\nstep_size = 0"),
        ("warmup_fraction", "schedule = linear_warmup_decay\nwarmup_fraction = 1.5"),
        ("betas", "betas = 1.5,0.9"),
        ("heaviside_threshold", "scheme = heaviside\nheaviside_threshold = -1\nheaviside_force = 1"),
        ("heaviside_force", "scheme = heaviside\nheaviside_threshold = 1\nheaviside_force = 0"),
    ],
    ids=[
        "gamma_multistep", "gamma_step", "milestones", "milestones_negative", "step_size",
        "warmup_fraction", "betas", "heaviside_threshold", "heaviside_force",
    ],
)
def test_component_rules_fail_at_load(key, lines):
    # the optimizer, schedule and regularizer own these rules; the config is rejected before any training
    with pytest.raises(ConfigError, match=key):
        parse_config(MINIMAL + lines + "\n")


def test_tuple_keys():
    cfg = parse_config(MINIMAL + "milestones = 60,80\nbetas = 0.8,0.95\n")
    assert cfg.milestones == (60, 80)
    assert cfg.betas == (0.8, 0.95)
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "betas = 0.9\n")


def test_exp_base_auto_and_override():
    assert parse_config(MINIMAL + "exp_base = auto\n").exp_base is None
    assert parse_config(MINIMAL + "exp_base = 1.5\n").exp_base == 1.5
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "exp_base = 0.5\n")


def test_heaviside_needs_parameters():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "scheme = heaviside\n")
    assert "heaviside" in str(err.value)
    cfg = parse_config(MINIMAL + "scheme = heaviside\nheaviside_threshold = 3\nheaviside_force = 5\n")
    assert cfg.heaviside_threshold == 3.0


def test_unknown_dataset_generator_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("arch = mlp:2-2\ndataset = imagenet\n")
    assert "imagenet" in str(err.value)
    # csv names are accepted at parse time
    cfg = parse_config("arch = mlp:2-2\ndataset = csv:/tmp/some.csv\n")
    assert cfg.dataset == "csv:/tmp/some.csv"


def test_bad_arch_becomes_config_error():
    with pytest.raises(ConfigError) as err:
        parse_config("arch = transformer:12\ndataset = two_spirals\n")
    assert "arch" in str(err.value)


def test_effective_seed_fallbacks():
    cfg = parse_config(MINIMAL + "seed = 9\n")
    assert cfg.effective_data_seed == 9
    assert cfg.effective_indexing_seed == 9
    cfg2 = parse_config(MINIMAL + "seed = 9\ndata_seed = 4\nindexing_seed = 5\n")
    assert cfg2.effective_data_seed == 4
    assert cfg2.effective_indexing_seed == 5


def test_effective_t_max_falls_back_to_epochs():
    # t_max = 0 means the whole run, counted in the schedule's unit
    for unit, total in (("epoch", 30), ("step", 30 * 4)):
        cfg = parse_config(MINIMAL + f"epochs = 30\nschedule = cosine\nschedule_unit = {unit}\n")
        assert schedule_for(cfg, 4).t_max == total
        assert schedule_for(with_overrides(cfg, t_max=12), 4).t_max == 12


def test_config_hash_stability():
    a = parse_config(MINIMAL)
    b = parse_config(MINIMAL)
    assert config_hash(a) == config_hash(b)
    c = parse_config(MINIMAL + "epochs = 3\n")
    assert config_hash(a) != config_hash(c)
    # output location does not change experiment identity
    d = parse_config(MINIMAL + "out_dir = elsewhere\n")
    assert config_hash(a) == config_hash(d)


def test_with_overrides_validates():
    cfg = parse_config(MINIMAL)
    assert with_overrides(cfg, seed=3).seed == 3
    with pytest.raises(ConfigError):
        with_overrides(cfg, epochs=0)


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL + "epochs = 4\n")
    cfg = load_config(str(path))
    assert cfg.epochs == 4
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.cfg"))
