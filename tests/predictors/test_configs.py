"""Tests for MASCOT configurations and the Table II storage rows."""

import pytest

from repro.predictors import Mascot
from repro.predictors.configs import (
    MASCOT_DEFAULT,
    MASCOT_OPT,
    MascotConfig,
    mascot_opt_reduced_tags,
)
from repro.predictors.registry import table2_rows


def kib_by_name():
    """Table II KiB per predictor (Store Sets' two structures summed)."""
    sizes = {}
    for row in table2_rows():
        name = row.name.split("/")[0]
        sizes[name] = sizes.get(name, 0.0) + row.kib
    return sizes


class TestDefaultConfig:
    def test_paper_geometry(self):
        """Sec. IV-B: 8 tables, [0,2,4,8,16,32,64,128] history, 512 entries,
        16-bit tags, 3-bit usefulness, 2-bit bypass, 7-bit distance."""
        c = MASCOT_DEFAULT
        assert c.num_tables == 8
        assert c.history_lengths == (0, 2, 4, 8, 16, 32, 64, 128)
        assert c.table_entries == (512,) * 8
        assert c.tag_bits == (16,) * 8
        assert c.distance_bits == 7
        assert c.usefulness_bits == 3
        assert c.bypass_bits == 2

    def test_entry_is_28_bits(self):
        """Fig. 6: 28 bits per entry."""
        (row,) = Mascot(MASCOT_DEFAULT).storage
        assert row.entry_bits == 28
        assert row.extra_bits == 0

    def test_total_size_14_kib(self):
        assert Mascot(MASCOT_DEFAULT).storage_kib == pytest.approx(14.0)

    def test_allocation_usefulness_values(self):
        """Sec. IV-C: dependent entries 6, non-dependent entries 2."""
        assert MASCOT_DEFAULT.alloc_usefulness_dep == 6
        assert MASCOT_DEFAULT.alloc_usefulness_nondep == 2


class TestOptConfig:
    def test_paper_table_sizes(self):
        """Sec. VI-D's resized tables and compensating tags."""
        assert MASCOT_OPT.table_entries == (1024, 512, 512, 512, 256, 256,
                                            256, 128)
        assert MASCOT_OPT.tag_bits == (15, 16, 16, 16, 17, 17, 17, 18)

    def test_16_percent_smaller(self):
        reduction = 1 - (Mascot(MASCOT_OPT).storage_bits
                         / Mascot(MASCOT_DEFAULT).storage_bits)
        assert reduction == pytest.approx(0.16, abs=0.03)

    def test_tag4_reaches_10_1_kib(self):
        """Fig. 15: MASCOT-OPT with tags reduced by 4 bits needs 10.1 KiB."""
        assert Mascot(mascot_opt_reduced_tags(4)).storage_kib == (
            pytest.approx(10.1, abs=0.1))

    def test_tag_reduction_validation(self):
        with pytest.raises(ValueError):
            mascot_opt_reduced_tags(-1)
        with pytest.raises(ValueError, match="tag widths must be positive"):
            mascot_opt_reduced_tags(20)


class TestValidation:
    def test_mismatched_tuples(self):
        with pytest.raises(ValueError):
            MascotConfig(table_entries=(512,) * 7)

    def test_decreasing_histories(self):
        with pytest.raises(ValueError):
            MascotConfig(history_lengths=(0, 4, 2, 8, 16, 32, 64, 128))

    def test_entries_divisible_by_ways(self):
        with pytest.raises(ValueError):
            MascotConfig(table_entries=(510,) * 8)

    def test_entries_power_of_two(self):
        # 1000 entries divide into 4 ways, but 250 sets have no index slice.
        with pytest.raises(ValueError, match="not a power of two"):
            Mascot(MascotConfig(table_entries=(1000,) * 8))

    @pytest.mark.parametrize("widths", [{"usefulness_bits": 9},
                                        {"usefulness_bits": 0},
                                        {"bypass_bits": 0},
                                        {"bypass_bits": 9}])
    def test_counter_widths_1_to_8_bits(self, widths):
        with pytest.raises(ValueError, match="counter widths"):
            MascotConfig(**widths)

    def test_alloc_usefulness_in_range(self):
        with pytest.raises(ValueError):
            MascotConfig(alloc_usefulness_dep=8)  # 3-bit counter
        with pytest.raises(ValueError):
            MascotConfig(alloc_usefulness_nondep=0)

    def test_with_derives_copy(self):
        derived = MASCOT_DEFAULT.with_(name="x", smb_enabled=False)
        assert derived.name == "x"
        assert not derived.smb_enabled
        assert MASCOT_DEFAULT.smb_enabled  # original untouched


class TestTable2Sizes:
    """The storage budgets the paper's Table II reports."""

    def test_store_sets_18_5_kb(self):
        assert kib_by_name()["store-sets"] == pytest.approx(18.5, abs=0.01)

    def test_nosq_19_kb(self):
        assert kib_by_name()["nosq"] == pytest.approx(19.0, abs=0.01)

    def test_phast_14_5_kb(self):
        assert kib_by_name()["phast"] == pytest.approx(14.5, abs=0.01)

    def test_mascot_14_kb(self):
        assert kib_by_name()["mascot"] == pytest.approx(14.0, abs=0.01)

    def test_mascot_opt_11_8125_kb(self):
        """Table II rounds MASCOT-OPT's 11.8125 KiB down to 11.75."""
        assert kib_by_name()["mascot-opt"] == 11.8125

    def test_mascot_opt_tag4_10_125_kb(self):
        """Fig. 15 rounds the tags-4 variant's 10.125 KiB to 10.1."""
        assert kib_by_name()["mascot-opt-tag4"] == 10.125

    def test_mascot_opt_sizing_exact(self):
        """Per-table tag widths must be accounted exactly, not averaged."""
        (row,) = [r for r in table2_rows() if r.name == "mascot-opt"]
        assert row.total_bits == sum(
            entries * (tag + 7 + 3 + 2)
            for entries, tag in zip(MASCOT_OPT.table_entries,
                                    MASCOT_OPT.tag_bits))

    def test_table2_rows_complete(self):
        names = [r.name for r in table2_rows()]
        assert names == ["store-sets/SSIT", "store-sets/LFST", "nosq",
                         "phast", "mascot", "mascot-opt", "mascot-opt-tag4"]

    def test_mascot_smaller_than_phast(self):
        """The paper's headline: both MDP and SMB in less space."""
        sizes = kib_by_name()
        assert sizes["mascot"] < sizes["phast"]
        assert sizes["mascot"] < sizes["nosq"]
