//! Per-dataset generator profiles: schemas, sizes (Table II), entity
//! factories and difficulty calibration.

use er_core::Rng;

use crate::perturb::{CorruptionPattern, Intensity};
use crate::vocab;

/// The eight Magellan benchmarks reproduced from Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Walmart-Amazon (Electronics, 5 attrs, 10 242 pairs, 962 matches).
    WalmartAmazon,
    /// Abt-Buy (Product, 3 attrs, 9 575 pairs, 1 028 matches).
    AbtBuy,
    /// Amazon-Google (Software, 3 attrs, 11 460 pairs, 1 167 matches).
    AmazonGoogle,
    /// DBLP-Scholar (Citation, 4 attrs, 28 707 pairs, 5 347 matches).
    DblpScholar,
    /// DBLP-ACM (Citation, 4 attrs, 12 363 pairs, 2 220 matches).
    DblpAcm,
    /// Fodors-Zagats (Restaurant, 6 attrs, 946 pairs, 110 matches).
    FodorsZagats,
    /// iTunes-Amazon (Music, 8 attrs, 532 pairs, 132 matches).
    ItunesAmazon,
    /// Beer (Beer, 4 attrs, 450 pairs, 68 matches).
    Beer,
}

impl DatasetKind {
    /// All benchmarks in Table II order.
    pub const ALL: [DatasetKind; 8] = [
        DatasetKind::WalmartAmazon,
        DatasetKind::AbtBuy,
        DatasetKind::AmazonGoogle,
        DatasetKind::DblpScholar,
        DatasetKind::DblpAcm,
        DatasetKind::FodorsZagats,
        DatasetKind::ItunesAmazon,
        DatasetKind::Beer,
    ];

    /// Short name used in the paper's tables.
    pub fn short_name(self) -> &'static str {
        match self {
            DatasetKind::WalmartAmazon => "WA",
            DatasetKind::AbtBuy => "AB",
            DatasetKind::AmazonGoogle => "AG",
            DatasetKind::DblpScholar => "DS",
            DatasetKind::DblpAcm => "DA",
            DatasetKind::FodorsZagats => "FZ",
            DatasetKind::ItunesAmazon => "IA",
            DatasetKind::Beer => "Beer",
        }
    }

    /// The generator profile for this dataset.
    pub fn profile(self) -> GeneratorProfile {
        match self {
            DatasetKind::WalmartAmazon => GeneratorProfile {
                kind: self,
                domain: "Electronics",
                schema: &["title", "category", "brand", "modelno", "price"],
                n_pairs: 10_242,
                n_matches: 962,
                intensity: Intensity { strength: 2, second_attr_prob: 0.5 },
                pattern_weights: &[
                    (CorruptionPattern::Typos, 2.0),
                    (CorruptionPattern::TokenDrop, 2.0),
                    (CorruptionPattern::MissingAttr, 2.0),
                    (CorruptionPattern::ExtraTokens, 1.5),
                    (CorruptionPattern::NumberFormat, 1.5),
                    (CorruptionPattern::Abbreviation, 1.0),
                ],
                hard_negative_frac: 0.35,
                key_attrs: &[0],
            },
            DatasetKind::AbtBuy => GeneratorProfile {
                kind: self,
                domain: "Product",
                schema: &["name", "description", "price"],
                n_pairs: 9_575,
                n_matches: 1_028,
                intensity: Intensity { strength: 2, second_attr_prob: 0.4 },
                pattern_weights: &[
                    (CorruptionPattern::TokenDrop, 2.0),
                    (CorruptionPattern::Typos, 1.5),
                    (CorruptionPattern::MissingAttr, 1.5),
                    (CorruptionPattern::ExtraTokens, 1.0),
                    (CorruptionPattern::NumberFormat, 1.0),
                ],
                hard_negative_frac: 0.30,
                key_attrs: &[0],
            },
            DatasetKind::AmazonGoogle => GeneratorProfile {
                kind: self,
                domain: "Software",
                schema: &["title", "manufacturer", "price"],
                n_pairs: 11_460,
                n_matches: 1_167,
                // The hardest benchmark in the paper (F1 ≈ 60): aggressive
                // corruption and many version-sibling hard negatives.
                intensity: Intensity { strength: 3, second_attr_prob: 0.65 },
                pattern_weights: &[
                    (CorruptionPattern::TokenDrop, 2.5),
                    (CorruptionPattern::Typos, 2.0),
                    (CorruptionPattern::MissingAttr, 2.0),
                    (CorruptionPattern::NumberFormat, 2.0),
                    (CorruptionPattern::ExtraTokens, 1.5),
                    (CorruptionPattern::Abbreviation, 1.5),
                ],
                hard_negative_frac: 0.55,
                key_attrs: &[0],
            },
            DatasetKind::DblpScholar => GeneratorProfile {
                kind: self,
                domain: "Citation",
                schema: &["title", "authors", "venue", "year"],
                n_pairs: 28_707,
                n_matches: 5_347,
                // Scholar-side metadata is scruffy: abbreviations and
                // missing fields dominate.
                intensity: Intensity { strength: 2, second_attr_prob: 0.55 },
                pattern_weights: &[
                    (CorruptionPattern::Abbreviation, 2.5),
                    (CorruptionPattern::MissingAttr, 2.0),
                    (CorruptionPattern::Reorder, 1.5),
                    (CorruptionPattern::Typos, 1.5),
                    (CorruptionPattern::TokenDrop, 1.0),
                ],
                hard_negative_frac: 0.40,
                key_attrs: &[0],
            },
            DatasetKind::DblpAcm => GeneratorProfile {
                kind: self,
                domain: "Citation",
                schema: &["title", "authors", "venue", "year"],
                n_pairs: 12_363,
                n_matches: 2_220,
                // ACM metadata is clean: light drift only.
                intensity: Intensity { strength: 1, second_attr_prob: 0.3 },
                pattern_weights: &[
                    (CorruptionPattern::Verbatim, 2.0),
                    (CorruptionPattern::Abbreviation, 1.5),
                    (CorruptionPattern::Reorder, 1.5),
                    (CorruptionPattern::Typos, 1.0),
                ],
                hard_negative_frac: 0.25,
                key_attrs: &[0],
            },
            DatasetKind::FodorsZagats => GeneratorProfile {
                kind: self,
                domain: "Restaurant",
                schema: &["name", "addr", "city", "phone", "type", "class"],
                n_pairs: 946,
                n_matches: 110,
                // The easiest benchmark (paper reaches 100.0 F1).
                intensity: Intensity { strength: 1, second_attr_prob: 0.25 },
                pattern_weights: &[
                    (CorruptionPattern::Verbatim, 2.0),
                    (CorruptionPattern::Abbreviation, 1.5),
                    (CorruptionPattern::NumberFormat, 1.0),
                    (CorruptionPattern::Typos, 1.0),
                ],
                hard_negative_frac: 0.15,
                key_attrs: &[0],
            },
            DatasetKind::ItunesAmazon => GeneratorProfile {
                kind: self,
                domain: "Music",
                schema: &[
                    "song_name",
                    "artist_name",
                    "album_name",
                    "genre",
                    "price",
                    "copyright",
                    "time",
                    "released",
                ],
                n_pairs: 532,
                n_matches: 132,
                intensity: Intensity { strength: 1, second_attr_prob: 0.35 },
                pattern_weights: &[
                    (CorruptionPattern::Verbatim, 1.5),
                    (CorruptionPattern::ExtraTokens, 1.5),
                    (CorruptionPattern::NumberFormat, 1.5),
                    (CorruptionPattern::MissingAttr, 1.0),
                    (CorruptionPattern::Typos, 1.0),
                ],
                hard_negative_frac: 0.25,
                key_attrs: &[0, 1],
            },
            DatasetKind::Beer => GeneratorProfile {
                kind: self,
                domain: "Beer",
                schema: &["beer_name", "brew_factory_name", "style", "abv"],
                n_pairs: 450,
                n_matches: 68,
                intensity: Intensity { strength: 2, second_attr_prob: 0.4 },
                pattern_weights: &[
                    (CorruptionPattern::Typos, 1.5),
                    (CorruptionPattern::TokenDrop, 1.5),
                    (CorruptionPattern::Abbreviation, 1.0),
                    (CorruptionPattern::MissingAttr, 1.0),
                ],
                hard_negative_frac: 0.30,
                key_attrs: &[0],
            },
        }
    }
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Everything the builder needs to synthesize one benchmark.
#[derive(Debug, Clone)]
pub struct GeneratorProfile {
    /// Which benchmark this is.
    pub kind: DatasetKind,
    /// Domain string for Table II.
    pub domain: &'static str,
    /// Attribute names.
    pub schema: &'static [&'static str],
    /// Total labeled pairs (Table II).
    pub n_pairs: usize,
    /// Matching pairs among them (Table II).
    pub n_matches: usize,
    /// Corruption intensity applied to matching pairs.
    pub intensity: Intensity,
    /// Weighted corruption patterns for matching pairs.
    pub pattern_weights: &'static [(CorruptionPattern, f64)],
    /// Fraction of non-matching pairs drawn as hard negatives (sibling
    /// entities from the same family).
    pub hard_negative_frac: f64,
    /// Attribute indices that must never be blanked.
    pub key_attrs: &'static [usize],
}

impl GeneratorProfile {
    /// Draws a corruption pattern from the profile's weights.
    pub fn draw_pattern(&self, rng: &mut Rng) -> CorruptionPattern {
        let total: f64 = self.pattern_weights.iter().map(|(_, w)| w).sum();
        let mut target = rng.uniform(0.0..total);
        for &(p, w) in self.pattern_weights {
            if target < w {
                return p;
            }
            target -= w;
        }
        self.pattern_weights
            .last()
            .map(|&(p, _)| p)
            .unwrap_or(CorruptionPattern::Verbatim)
    }
}

/// Produces the attribute values of entity `(family, variant)` for a
/// dataset. Variant 0 is the canonical entity; other variants are
/// *siblings*: different real-world entities that share most surface
/// tokens (hard negatives). Fully deterministic in `(kind, family,
/// variant)` so the same entity can be re-materialized anywhere.
pub fn make_entity(kind: DatasetKind, family: u32, variant: u32) -> Vec<String> {
    // Family-deterministic picks keep siblings lexically close and the
    // whole factory reproducible without any RNG state.
    let pick = |pool: &[&str], salt: u32| -> String {
        let idx = (family
            .wrapping_mul(2_654_435_761)
            .wrapping_add(salt.wrapping_mul(40_503))) as usize
            % pool.len();
        pool[idx].to_owned()
    };
    match kind {
        DatasetKind::WalmartAmazon => {
            let brand = pick(vocab::BRANDS, 0);
            let qual = pick(vocab::PRODUCT_QUALIFIERS, 1);
            let noun = pick(vocab::PRODUCT_NOUNS, 2);
            let modelno = format!(
                "{}{}",
                brand.chars().next().unwrap_or('x').to_uppercase(),
                1000 + (family % 90) * 10 + variant
            );
            let price = format!("{}.{:02}", 20 + (family % 400) + variant * 7, family % 100);
            vec![
                format!("{brand} {qual} {noun} {modelno}"),
                pick(vocab::CATEGORIES, 3),
                brand,
                modelno,
                price,
            ]
        }
        DatasetKind::AbtBuy => {
            let brand = pick(vocab::BRANDS, 0);
            let noun = pick(vocab::PRODUCT_NOUNS, 1);
            let qual = pick(vocab::PRODUCT_QUALIFIERS, 2);
            let model = format!(
                "{}-{}",
                noun.chars().take(2).collect::<String>(),
                100 + family % 800 + variant
            );
            let price = format!("{}.00", 30 + (family % 300) + variant * 11);
            vec![
                format!("{brand} {noun} {model}"),
                format!(
                    "{qual} {brand} {noun} with {} warranty",
                    pick(vocab::PRODUCT_QUALIFIERS, 4)
                ),
                price,
            ]
        }
        DatasetKind::AmazonGoogle => {
            let maker = pick(vocab::SOFTWARE_MAKERS, 0);
            let product = pick(vocab::SOFTWARE_NOUNS, 1);
            // Siblings are adjacent versions of the same product — the
            // classic Amazon-Google confusion.
            let version = 2004 + (family % 4) + variant;
            let price = format!("{}.99", 19 + (family % 180) + variant * 10);
            vec![format!("{maker} {product} {version}"), maker, price]
        }
        DatasetKind::DblpScholar | DatasetKind::DblpAcm => {
            let topic = pick(vocab::PAPER_TOPICS, 0);
            let frame = pick(vocab::PAPER_FRAMES, 1);
            let title = frame.replace("{}", &topic);
            // Siblings: same group publishes a follow-up — same authors,
            // same venue family, adjacent year, slightly different title.
            let title = if variant == 0 {
                title
            } else {
                format!("{title} part {}", variant + 1)
            };
            let n_authors = 2 + (family % 3) as usize;
            let authors = (0..n_authors)
                .map(|i| {
                    format!(
                        "{}. {}",
                        pick(vocab::INITIALS, 10 + i as u32),
                        pick(vocab::SURNAMES, 20 + i as u32)
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            let venue = pick(vocab::VENUES, 2);
            let year = 1995 + (family % 13) + variant;
            vec![title, authors, venue, year.to_string()]
        }
        DatasetKind::FodorsZagats => {
            let stem = pick(vocab::RESTAURANT_STEMS, 0);
            let city = pick(vocab::CITIES, 1);
            let street = pick(vocab::STREETS, 2);
            // Sibling: the same chain's other location in the same city.
            let number = 100 + (family % 899) + variant * 412;
            let (f, v) = (family as u64, variant as u64);
            let phone = format!(
                "{}-{:03}-{:04}",
                200 + f % 700,
                100 + (f * 7) % 900,
                (1000 + f * 13 + v * 111) % 10000
            );
            vec![
                if variant == 0 {
                    stem.clone()
                } else {
                    format!("{stem} downtown")
                },
                format!("{number} {street}"),
                city,
                phone,
                pick(vocab::CUISINES, 3),
                format!("{}", (family % 5) + variant),
            ]
        }
        DatasetKind::ItunesAmazon => {
            let w1 = pick(vocab::SONG_WORDS, 0);
            let w2 = pick(vocab::SONG_WORDS, 7);
            let artist = pick(vocab::ARTISTS, 1);
            // Sibling: remix / live version of the same song.
            let song = if variant == 0 {
                format!("{w1} {w2}")
            } else {
                format!("{w1} {w2} (live)")
            };
            let album = format!("{} {}", pick(vocab::SONG_WORDS, 3), "sessions");
            let price = if family.is_multiple_of(2) {
                "$0.99"
            } else {
                "$1.29"
            }
            .to_owned();
            let (f, v) = (family as u64, variant as u64);
            let minutes = 2 + f % 4;
            let seconds = (f * 17 + v * 29) % 60;
            let year = 2005 + (f % 15) + v;
            let copyright = format!("(c) {year} {artist}");
            vec![
                song,
                artist,
                album,
                pick(vocab::GENRES, 4),
                price,
                copyright,
                format!("{minutes}:{seconds:02}"),
                format!(
                    "{} {}, {year}",
                    pick(&["january", "march", "june", "october"], 5),
                    1 + family % 28
                ),
            ]
        }
        DatasetKind::Beer => {
            let stem = pick(vocab::BEER_STEMS, 0);
            let brewery = pick(vocab::BREWERIES, 1);
            // Sibling: the brewery's double/imperial variant.
            let name = if variant == 0 {
                stem.clone()
            } else {
                format!("double {stem}")
            };
            let abv = format!("{}.{}%", 4 + family % 6 + variant * 2, family % 10);
            vec![name, brewery, pick(vocab::BEER_STYLES, 2), abv]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_shapes() {
        // (name, attrs, pairs, matches) straight from Table II.
        let expected = [
            ("WA", 5, 10_242, 962),
            ("AB", 3, 9_575, 1_028),
            ("AG", 3, 11_460, 1_167),
            ("DS", 4, 28_707, 5_347),
            ("DA", 4, 12_363, 2_220),
            ("FZ", 6, 946, 110),
            ("IA", 8, 532, 132),
            ("Beer", 4, 450, 68),
        ];
        for (kind, (name, attrs, pairs, matches)) in DatasetKind::ALL.into_iter().zip(expected) {
            let p = kind.profile();
            assert_eq!(kind.short_name(), name);
            assert_eq!(p.schema.len(), attrs, "{name}");
            assert_eq!(p.n_pairs, pairs, "{name}");
            assert_eq!(p.n_matches, matches, "{name}");
            assert!(p.n_matches < p.n_pairs);
        }
    }

    #[test]
    fn entities_match_schema_arity() {
        for kind in DatasetKind::ALL {
            let p = kind.profile();
            for family in [0u32, 7, 123] {
                for variant in [0u32, 1] {
                    let vals = make_entity(kind, family, variant);
                    assert_eq!(vals.len(), p.schema.len(), "{kind} f{family} v{variant}");
                    assert!(!vals[0].trim().is_empty(), "{kind} empty key attr");
                }
            }
        }
    }

    #[test]
    fn siblings_share_surface_but_differ() {
        for kind in DatasetKind::ALL {
            let a = make_entity(kind, 42, 0);
            let b = make_entity(kind, 42, 1);
            assert_ne!(a, b, "{kind}: sibling identical to canonical");
            // Siblings share a decent fraction of first-attribute tokens.
            let sim = text_sim::jaccard_tokens(&a[0], &b[0]);
            assert!(sim > 0.2, "{kind}: sibling titles too unlike ({sim})");
        }
    }

    #[test]
    fn different_families_differ() {
        for kind in DatasetKind::ALL {
            let a = make_entity(kind, 1, 0);
            let b = make_entity(kind, 2, 0);
            assert_ne!(a, b, "{kind}");
        }
    }

    #[test]
    fn pattern_drawing_respects_support() {
        let mut rng = Rng::from_seed(6);
        let p = DatasetKind::WalmartAmazon.profile();
        for _ in 0..200 {
            let drawn = p.draw_pattern(&mut rng);
            assert!(
                p.pattern_weights.iter().any(|&(pat, _)| pat == drawn),
                "drew pattern outside profile support"
            );
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(DatasetKind::WalmartAmazon.to_string(), "WA");
        assert_eq!(DatasetKind::Beer.to_string(), "Beer");
    }
}
