"""Tests for the ``python -m repro`` command-line EXPLAIN tool."""

import pytest

from repro.__main__ import (
    build_argument_parser,
    build_batch_parser,
    build_serve_parser,
    main,
)
from repro.asyncserver.config import AsyncServerConfig
from repro.server.config import ServerConfig

SQL = (
    "SELECT ns.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey GROUP BY ns.n_name"
)


class TestArgumentParser:
    def test_defaults(self):
        args = build_argument_parser().parse_args([SQL])
        assert args.strategy == "ea-prune"
        assert args.factor == 1.03
        assert args.scale_factor == 1.0

    def test_strategy_choices(self):
        with pytest.raises(SystemExit):
            build_argument_parser().parse_args(["--strategy", "magic", SQL])


class TestNoServingEngineKnob:
    """Serving has one engine, so no subcommand or server config offers a
    choice; the reference oracle is reachable only through the library."""

    @pytest.mark.parametrize(
        "build_parser,argv",
        [
            (build_argument_parser, [SQL]),
            (build_batch_parser, []),
            (build_serve_parser, []),
        ],
        ids=["explain", "batch", "serve"],
    )
    def test_engine_option_rejected(self, build_parser, argv):
        build_parser().parse_args(argv)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--engine", "indexed", *argv])

    @pytest.mark.parametrize("config_class", [ServerConfig, AsyncServerConfig])
    def test_server_config_has_no_engine(self, config_class):
        with pytest.raises(TypeError, match="engine"):
            config_class(engine="indexed")


class TestMain:
    def test_explain(self, capsys):
        assert main([SQL]) == 0
        out = capsys.readouterr().out
        assert "Cout=" in out
        assert "Γ" in out or "Π" in out  # a grouping or its elimination

    def test_compare(self, capsys):
        assert main(["--compare", SQL]) == 0
        out = capsys.readouterr().out
        for strategy in ("dphyp", "ea-all", "ea-prune", "h1", "h2"):
            assert strategy in out

    def test_compare_prints_the_minimum_cost_winner(self, capsys):
        assert main(["--compare", SQL]) == 0
        out = capsys.readouterr().out
        winner_lines = [line for line in out.splitlines() if line.startswith("winner: ")]
        assert len(winner_lines) == 1
        # eager aggregation beats lazy DPhyp on this query
        assert "winner: dphyp" not in out

    def test_compare_renders_the_winning_plan(self, capsys):
        from repro.api import PlannerSession

        assert main(["--compare", SQL]) == 0
        out = capsys.readouterr().out
        comparison = PlannerSession.tpch().sql(SQL).optimize_all_strategies()
        # the rendered tree is the minimum-cost strategy's, not a
        # hardcoded one: the eager plan groups *below* the join
        assert comparison.best.explain() in out
        lazy = comparison["dphyp"].explain()
        if lazy != comparison.best.explain():
            assert lazy not in out

    def test_cost_model_option(self, capsys):
        assert main(["--cost-model", "cout", SQL]) == 0
        assert "Cout=" in capsys.readouterr().out

    def test_strategy_option(self, capsys):
        assert main(["--strategy", "h2", "--factor", "1.1", SQL]) == 0
        assert "strategy=h2" in capsys.readouterr().out

    def test_scale_factor(self, capsys):
        assert main(["--scale-factor", "0.1", SQL]) == 0

    def test_bad_sql_reports_error(self, capsys):
        assert main(["SELECT FROM nowhere"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_table_reports_error(self, capsys):
        assert main(["SELECT count(*) FROM nowhere GROUP BY x"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_explicit_explain_subcommand(self, capsys):
        assert main(["explain", SQL]) == 0
        assert "Cout=" in capsys.readouterr().out


class TestBatchSubcommand:
    def test_random_workload_warms_cache(self, capsys):
        assert main([
            "batch", "--count", "6", "--relations", "3", "--unique", "2",
            "--workers", "1", "--repeat", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "batch 1:" in out and "batch 2:" in out
        assert "cache hits=6 (100%)" in out  # second batch fully cached
        assert "cache: 2/" in out

    def test_no_cache_flag(self, capsys):
        assert main([
            "batch", "--count", "4", "--relations", "3", "--workers", "1",
            "--repeat", "1", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "cache=off" in out
        assert "cache:" not in out
        assert "deduped=" in out  # in-batch reuse is not a cache hit
        assert "cache hits" not in out

    def test_sql_file_workload(self, tmp_path, capsys):
        sql_file = tmp_path / "queries.sql"
        sql_file.write_text("# comment\n" + SQL + "\n\n" + SQL + "\n")
        assert main([
            "batch", "--sql-file", str(sql_file), "--workers", "1", "--repeat", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 queries" in out
        assert "optimized=1" in out  # identical statements dedup to one run

    def test_missing_sql_file_reports_error(self, capsys):
        assert main(["batch", "--sql-file", "/nonexistent.sql"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unparsable_workload_line_is_located(self, tmp_path, capsys):
        sql_file = tmp_path / "queries.sql"
        sql_file.write_text("# header\n" + SQL + "\nSELECT FROM nowhere\n")
        assert main(["batch", "--sql-file", str(sql_file)]) == 1
        err = capsys.readouterr().err
        assert f"{sql_file}:3:" in err


class TestMixedSqlWorkload:
    EXISTS_SQL = (
        "SELECT n.n_name, count(*) AS cnt FROM nation n WHERE EXISTS "
        "(SELECT * FROM supplier s WHERE s.s_nationkey = n.n_nationkey) "
        "GROUP BY n.n_name"
    )

    def test_explain_exists_query(self, capsys):
        assert main([self.EXISTS_SQL]) == 0
        out = capsys.readouterr().out
        assert "Cout=" in out
        assert "⋉" in out  # the semijoin survives into the rendered plan

    def test_explain_right_join(self, capsys):
        assert main([
            "SELECT n.n_name, count(*) AS cnt FROM supplier s "
            "RIGHT JOIN nation n ON s.s_nationkey = n.n_nationkey "
            "GROUP BY n.n_name"
        ]) == 0
        assert "⟕" in capsys.readouterr().out

    def test_explain_reserved_keyword_is_an_error(self, capsys):
        assert main(["SELECT count(*) FROM nation n ORDER BY n.n_name"]) == 1
        assert "reserved but not yet supported" in capsys.readouterr().err

    def test_batch_mixed_sql(self, capsys):
        assert main([
            "batch", "--mixed-sql", "--count", "6", "--unique", "3",
            "--workers", "1", "--repeat", "2", "--seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "batch 2:" in out
        assert "cache hits=6 (100%)" in out  # second pass fully cached
