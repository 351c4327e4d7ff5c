//! Cross-crate integration: every Table I / Table II model builds, trains a
//! step and produces finite, correctly-shaped, non-negative predictions on
//! the same dataset.

use gaia_core::trainer::{predict_batch_with, predict_nodes, train, InferenceScratch, TrainConfig};
use gaia_core::EmbedCache;
use gaia_eval::{build_model, ModelKind};
use gaia_synth::{generate_dataset, WorldConfig};
use std::fmt::Write as _;

#[test]
fn every_neural_model_trains_and_predicts() {
    let (world, ds) = generate_dataset(WorldConfig { n_shops: 90, ..WorldConfig::tiny() });
    let tc = TrainConfig { epochs: 1, batch_size: 32, verbose: false, ..TrainConfig::default() };
    let nodes: Vec<usize> = ds.splits.test.iter().take(6).copied().collect();
    for &kind in ModelKind::table1_neural().iter().chain(ModelKind::table2()) {
        let mut model = build_model(kind, &ds, 3);
        let report = train(&mut *model, &ds, &world.graph, &tc);
        assert!(
            report.train_loss.iter().all(|l| l.is_finite()),
            "{:?} diverged: {:?}",
            kind,
            report.train_loss
        );
        let preds = predict_nodes(&*model, &ds, &world.graph, &nodes, 11, 2);
        assert_eq!(preds.len(), nodes.len(), "{kind:?}");
        for p in &preds {
            assert_eq!(p.currency.len(), ds.horizon, "{kind:?}");
            assert!(
                p.currency.iter().all(|v| v.is_finite() && *v >= 0.0),
                "{kind:?} produced invalid currency {:?}",
                p.currency
            );
            assert!(
                p.model_space.iter().all(|v| v.is_finite() && *v >= 0.0),
                "{kind:?} model space must be ReLU-non-negative: {:?}",
                p.model_space
            );
        }
    }
}

/// Path of the committed golden prediction fixtures, relative to the crate
/// root (where `cargo test` runs integration tests).
const GOLDEN_PATH: &str = "tests/golden/predictions.txt";

/// Tier of the **current build**: the scalar kernel fallbacks reproduce
/// the committed fixture bit-for-bit; the `simd` build swaps libm
/// exp/tanh for polynomial approximations, so its bits legitimately
/// drift by a few ulp and are compared under tolerance instead.
const BUILD_TIER: &str = if cfg!(feature = "simd") { "tolerance" } else { "bit-exact" };

/// Tolerance for the `tolerance` tier, per value: `|got - want| ≤
/// GOLDEN_ABS + GOLDEN_REL · |want|`. The polynomial transcendentals are
/// accurate to ~2 ulp per call (≲ 2⁻²² relative); a whole forward pass
/// accumulates well under 1e-5 relative on the model-space outputs, so
/// 1e-4 keeps two orders of margin while still catching real numeric
/// regressions (which show up at 1e-2+).
const GOLDEN_REL: f32 = 1e-4;
const GOLDEN_ABS: f32 = 1e-6;

/// Tier recorded in a fixture's `# tier:` header (`bit-exact` when absent
/// — fixtures predate the header).
fn fixture_tier(fixture: &str) -> &str {
    fixture
        .lines()
        .find_map(|l| l.strip_prefix("# tier: "))
        .map(|t| t.trim())
        .unwrap_or("bit-exact")
}

/// Data lines (label + hex bit patterns) of a fixture, comments stripped.
fn fixture_data(fixture: &str) -> Vec<&str> {
    fixture.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()).collect()
}

/// Tolerance-tier comparison: identical labels, every f32 within
/// `GOLDEN_ABS + GOLDEN_REL·|want|` of the committed value.
fn assert_golden_within_tolerance(committed: &str, rendered: &str) {
    let (want_lines, got_lines) = (fixture_data(committed), fixture_data(rendered));
    assert_eq!(
        want_lines.len(),
        got_lines.len(),
        "golden fixture {GOLDEN_PATH}: line count changed"
    );
    // A line is `<label...> node=<id> <hex>...` where the label may itself
    // contain spaces (e.g. the `w/o ITA` ablations) — split after `node=`.
    fn split_line(line: &str) -> (&str, &str) {
        let node = line.find("node=").expect("fixture line without node= field");
        let hex_at = line[node..].find(' ').map(|o| node + o).unwrap_or(line.len());
        (&line[..hex_at], &line[hex_at..])
    }
    for (want, got) in want_lines.iter().zip(&got_lines) {
        let (wl, wh_all) = split_line(want);
        let (gl, gh_all) = split_line(got);
        assert_eq!(wl, gl, "golden label drift: `{want}` vs `{got}`");
        for (wh, gh) in wh_all.split_whitespace().zip(gh_all.split_whitespace()) {
            let w = f32::from_bits(u32::from_str_radix(wh, 16).expect("bad hex in fixture"));
            let g = f32::from_bits(u32::from_str_radix(gh, 16).expect("bad hex in render"));
            assert!(
                (g - w).abs() <= GOLDEN_ABS + GOLDEN_REL * w.abs(),
                "golden drift beyond the {BUILD_TIER} tier on `{want}`: {g} vs {w} \
                 (|Δ| = {}, budget {})",
                (g - w).abs(),
                GOLDEN_ABS + GOLDEN_REL * w.abs()
            );
        }
    }
}

/// Render the golden fixture: for every model-zoo configuration on the
/// fixed-seed world, the exact f32 bit patterns of its predictions.
fn render_golden() -> String {
    let (world, ds) = generate_dataset(WorldConfig { n_shops: 90, ..WorldConfig::tiny() });
    let nodes: Vec<usize> = ds.splits.test.iter().take(4).copied().collect();
    let mut out = String::from(
        "# Golden predictions for the model-zoo configurations (fixed-seed world:\n\
         # n_shops=90 over WorldConfig::tiny, model seed 3, prediction seed 11).\n\
         # One line per model and centre: `<label> node=<id> <f32 bit patterns in hex>`\n\
         # (model-space predictions from predict_nodes; predict_batch_with is asserted\n\
         # equal to these same bits, so the fixture locks BOTH inference paths).\n\
         # Any drift fails tests/model_zoo.rs::golden_predictions_have_not_drifted.\n\
         #\n\
         # Reference platform: x86_64-unknown-linux-gnu (the CI target). The\n\
         # bits go through libm transcendentals (exp/tanh), so a different\n\
         # libm (macOS, musl, a future glibc) may legitimately differ by an\n\
         # ulp — if the suite fails ONLY on a non-reference platform with no\n\
         # code change, that is platform drift, not a regression.\n\
         #\n\
         # To regenerate after an INTENTIONAL numeric change (on the\n\
         # reference platform):\n\
         #     UPDATE_GOLDEN=1 cargo test -q --test model_zoo golden\n\
         # then eyeball the diff and commit it together with the change.\n\
         # Regenerate WITHOUT the `simd` feature (--no-default-features) so\n\
         # the committed tier stays `bit-exact` — the scalar build then\n\
         # checks bits exactly and simd builds check against tolerance.\n",
    );
    // Tier of the build that produced these bits; see BUILD_TIER.
    writeln!(out, "# tier: {BUILD_TIER}").unwrap();
    let mut seen = Vec::new();
    for &kind in ModelKind::table1_neural().iter().chain(ModelKind::table2()) {
        if seen.contains(&kind.label()) {
            continue; // Gaia appears in both tables.
        }
        seen.push(kind.label());
        let model = build_model(kind, &ds, 3);
        let preds = predict_nodes(&*model, &ds, &world.graph, &nodes, 11, 2);
        // The batched path must produce the same bits (parity contract).
        let mut scratch = InferenceScratch::new();
        let empty = EmbedCache::new();
        let batched =
            predict_batch_with(&*model, &ds, &world.graph, &nodes, 11, &empty, &mut scratch);
        for (p, b) in preds.iter().zip(&batched) {
            assert_eq!(
                p.model_space, b.model_space,
                "{kind:?}: batched predictions diverge from predict_nodes"
            );
            let mut line = format!("{} node={}", kind.label(), p.node);
            for &v in &p.model_space {
                write!(line, " {:08x}", v.to_bits()).unwrap();
            }
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// GOLDEN REGRESSION WALL, in two tiers. The committed fixture is
/// regenerated on the **scalar** build (`--no-default-features`), whose
/// bits it records exactly (`# tier: bit-exact`):
///
/// * a scalar build compares **bit for bit** — any single-ulp change in
///   the scalar kernels fails here;
/// * a `simd` build uses polynomial exp/tanh (a few ulp per call), so it
///   compares under [`GOLDEN_REL`]/[`GOLDEN_ABS`] tolerance instead.
///
/// The batched inference path must match predict_nodes bit-for-bit on
/// EVERY build, via the assertion inside [`render_golden`]. Set
/// `UPDATE_GOLDEN=1` to regenerate after an intentional change.
#[test]
fn golden_predictions_have_not_drifted() {
    let rendered = render_golden();
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all("tests/golden").expect("create tests/golden");
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden fixture");
        eprintln!(
            "golden fixture regenerated at {GOLDEN_PATH} (tier: {BUILD_TIER}); \
             diff and commit it"
        );
        return;
    }
    let committed = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!("missing golden fixture {GOLDEN_PATH} ({e}); run UPDATE_GOLDEN=1 to create it")
    });
    // Bit-for-bit comparison only applies when BOTH sides are bit-exact:
    // the fixture was recorded from scalar kernels and this build runs
    // them. Everything else (simd build, or a fixture someone regenerated
    // on a simd build) gets the tolerance tier.
    if fixture_tier(&committed) != "bit-exact" || BUILD_TIER != "bit-exact" {
        assert_golden_within_tolerance(&committed, &rendered);
        return;
    }
    if committed != rendered {
        // Report the first diverging line, not a wall of hex.
        for (i, (want, got)) in committed.lines().zip(rendered.lines()).enumerate() {
            assert_eq!(
                want,
                got,
                "golden drift at {GOLDEN_PATH}:{} — if intentional, regenerate with \
                 UPDATE_GOLDEN=1 and commit the diff",
                i + 1
            );
        }
        panic!(
            "golden fixture {GOLDEN_PATH} length changed ({} vs {} lines)",
            committed.lines().count(),
            rendered.lines().count()
        );
    }
}

#[test]
fn training_step_changes_predictions() {
    let (world, ds) = generate_dataset(WorldConfig { n_shops: 90, ..WorldConfig::tiny() });
    let nodes: Vec<usize> = ds.splits.test.iter().take(4).copied().collect();
    for &kind in &[ModelKind::Gaia, ModelKind::Mtgnn, ModelKind::LogTrans] {
        let mut model = build_model(kind, &ds, 5);
        let before: Vec<Vec<f32>> = predict_nodes(&*model, &ds, &world.graph, &nodes, 1, 2)
            .into_iter()
            .map(|p| p.model_space)
            .collect();
        let tc =
            TrainConfig { epochs: 1, batch_size: 16, verbose: false, ..TrainConfig::default() };
        train(&mut *model, &ds, &world.graph, &tc);
        let after: Vec<Vec<f32>> = predict_nodes(&*model, &ds, &world.graph, &nodes, 1, 2)
            .into_iter()
            .map(|p| p.model_space)
            .collect();
        assert_ne!(before, after, "{kind:?}: training had no effect on predictions");
    }
}
