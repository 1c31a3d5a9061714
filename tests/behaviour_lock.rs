//! Behaviour lock: golden FNV-1a digests of what the pipeline produces
//! over a fixed corpus, so a rewrite that claims "same bytes" proves it.
//!
//! The corpus is the seed-42 smoke-scale SQuAD-1.1 and TriviaQA-web dev
//! splits plus hand-written run-on sentences of 40–72 kept (non-punct,
//! non-particle) tokens — long enough to exercise the CKY chart near its
//! `max_len` cutoff. Two things are pinned per part:
//!
//! * the wire bytes of `Gced::distill` (`render_distillation_with_id`,
//!   or `render_error` on a typed failure), exactly what `gced distill`
//!   prints and the server answers;
//! * the `parse_document` parent array of every context, which covers
//!   every sentence of the corpus.
//!
//! Separately, the smoke-scale seed-42 `table3`, `reduction` and
//! `ablation` reports are pinned: the bytes `gced run <experiment>
//! --scale smoke --seed 42 --out PATH` writes.
//!
//! A moved digest is a behaviour change. Do not re-baseline it to make a
//! refactor pass: find the change.

use gced::Gced;
use gced_datasets::{DatasetKind, ShardSpec};
use gced_eval::shard::load_or_fit;
use gced_eval::{merge, run_shard, Scale};
use gced_serve::wire::{render_distillation_with_id, render_error};
use gced_text::Pos;

const SEED: u64 = 42;

/// Golden digests, recorded before the dense-table CKY rewrite.
const SQUAD_DISTILL: u64 = 0xd72a_e2dc_fb46_a5c1;
const TRIVIA_DISTILL: u64 = 0x928b_631d_f2ac_d512;
const RUNON_DISTILL: u64 = 0x066c_b4a0_60e1_acba;
const PARSE_PARENTS: u64 = 0x996f_523d_0b4b_988e;

/// Golden digests of the smoke-scale, seed-42 SQuAD-1.1 experiment
/// reports, recorded before the Eq. 8 encode path was deleted.
const TABLE_REPORTS: &[(&str, u64)] = &[
    ("table3", 0x3d42_d665_ca31_6723),
    ("reduction", 0x83d5_33cb_5d0e_5f7a),
    ("ablation", 0x57a8_4257_4e1f_7fc2),
];

/// (question, answer, context): single run-on sentences of coordinated
/// clauses, each of which the embedded grammar derives to `TOP`, so the
/// pinned trees are CKY output rather than the right-branching fallback.
const RUN_ON: &[(&str, &str, &str)] = &[
    (
        "Who defeated the Carolina Panthers?",
        "Denver Broncos",
        "The American Football Conference champion Denver Broncos defeated the National Football \
         Conference champion Carolina Panthers in the Super Bowl at Levi Stadium in Santa Clara \
         and the famous singer performed a long concert for the fans in the stadium and the happy \
         players lifted the golden trophy after the game in the evening.",
    ),
    (
        "Where was Napoleon defeated?",
        "Waterloo",
        "Napoleon Bonaparte led the French armies across Europe in many successful campaigns and \
         the armies of Britain and Prussia defeated the emperor at the Battle of Waterloo in 1815 \
         and the British government ordered a long exile for the former emperor on the remote \
         island of Saint Helena in the South Atlantic.",
    ),
    (
        "What did the tourists visit?",
        "ancient castle",
        "The river crossed the wide valley near the old stone farms of the small villages and the \
         farmers harvested the wheat and the barley in the summer and the shepherds watched the \
         sheep on the hills in the winter and the tourists visited the ancient castle on a rocky \
         cliff near the town of Riverton.",
    ),
    (
        "Which elements did Marie Curie discover?",
        "polonium and radium",
        "Marie Curie conducted the pioneering research on radioactivity in a small laboratory in \
         Paris and the physicist discovered the elements polonium and radium with her husband \
         Pierre Curie in the last years of the nineteenth century and the Swedish academy awarded \
         the Nobel Prize in physics to the famous scientist in 1903.",
    ),
    (
        "Where were the new phone sales strong?",
        "Asia and Europe",
        "The company announced a sharp growth in profits on Monday and the strong sales of the \
         new phones in Asia and Europe exceeded the weak demand for the older models in North \
         America and the rising costs of memory chips from several large suppliers in Korea and \
         Taiwan reduced the margins of the firm.",
    ),
    (
        "How many glass tanks were there?",
        "twelve",
        "The young scientist measured the temperature of the water in the twelve glass tanks in \
         the early morning and recorded the results in a small notebook and the careful student \
         cleaned the filters of the tanks and walked across the campus to the library in the \
         afternoon.",
    ),
    (
        "Who built the Great Wall of China?",
        "ancient Chinese states",
        "The ancient Chinese states built the Great Wall of China across the northern frontier of \
         the empire against the nomadic groups from the Eurasian Steppe and the long wall crossed \
         thousands of kilometers of mountains and deserts and grasslands and the Ming emperors \
         repaired the stone towers of the wall in many places.",
    ),
    (
        "Who played a long solo?",
        "principal cellist",
        "The orchestra performed the new symphony by the young composer in the grand concert hall \
         on Saturday and the critics praised the bold use of brass and percussion in the first \
         movement and the quiet beauty of the second movement and the principal cellist played a \
         long solo for the happy audience in the hall.",
    ),
    (
        "Where will the new reservoir be built?",
        "hills east of the city",
        "The city council approved a new plan for a large reservoir in the hills east of the city \
         after the long drought and the engineers repaired the old pipes under the main streets \
         of the town and the growing population received enough clean water for the homes and the \
         local farms irrigated the fields in the dry summer months and the mayor praised the \
         engineers for the quick repairs.",
    ),
    (
        "Who composed the Goldberg Variations?",
        "Johann Sebastian Bach",
        "Johann Sebastian Bach composed the Brandenburg Concertos and the Goldberg Variations in \
         the late Baroque period and the German musician completed a famous Mass for a large \
         choir and the critics of the nineteenth century regarded the great composer as a master \
         of Western music.",
    ),
    (
        "How many horses did the expedition have?",
        "forty",
        "The expedition crossed the dry plains with forty horses and twelve wagons of food and \
         tools in the early spring and the weary members reached the fertile valley after three \
         months of hard travel and the settlers built a small village of wooden houses near a \
         clear river in the valley.",
    ),
    (
        "What did the scholars study?",
        "papyrus scrolls",
        "The museum opened a new exhibition of ancient Egyptian art with wooden coffins and \
         golden jewelry and stone statues of kings and queens and the scholars from the \
         university studied the papyrus scrolls in the collection for many years and the curators \
         arranged the objects in a large hall near the entrance.",
    ),
    (
        "Who formulated the laws of motion?",
        "Isaac Newton",
        "Isaac Newton formulated the laws of motion and universal gravitation in the late \
         seventeenth century and the English physicist built the first practical reflecting \
         telescope and developed a theory of colour and the scientific view of the physical \
         universe depended on the ideas of the great mathematician for three centuries.",
    ),
    (
        "When did the baker prepare the dough?",
        "four in the morning",
        "The owner of the small bakery on the corner of the main square learned the trade from \
         her grandmother in a village in the south of France and the busy baker prepared the \
         dough for the fresh bread and the sweet cakes at four in the morning and the first \
         customers arrived at the shop at seven and the baker sold the last loaves before noon.",
    ),
    (
        "What did the heavy rain flood?",
        "low streets near the harbor",
        "The strong winds destroyed dozens of trees across the northern suburbs during the storm \
         and damaged the roofs of several schools and houses and the heavy rain flooded the low \
         streets near the harbor and the police closed the coastal road for many hours and the \
         emergency crews cleared the debris from the tunnels.",
    ),
    (
        "What did the trees absorb?",
        "carbon dioxide",
        "The Amazon rainforest covers much of the Amazon basin of South America and the forest \
         provided a home for millions of species of insects and plants and birds and the trees of \
         the forest absorbed large amounts of carbon dioxide and released huge quantities of \
         water vapor into the atmosphere.",
    ),
    (
        "When did the bridge open to traffic?",
        "1937",
        "The young engineer designed a light and strong bridge of steel cables and concrete \
         towers for the cars and trains across the wide bay and the bridge opened to traffic in \
         the autumn of 1937 after six years of careful construction and the famous structure \
         quickly became a symbol of the city for painters and photographers.",
    ),
    (
        "Whom did William defeat at Hastings?",
        "Harold Godwinson",
        "William the Conqueror led the Norman conquest of England in 1066 and defeated the \
         English king Harold Godwinson at the Battle of Hastings and the Norman king built many \
         castles across the country and ordered the great survey of the land in the Domesday Book \
         before his death in 1087.",
    ),
    (
        "Where did the national team train?",
        "mountains",
        "The national team trained for many weeks in the mountains before the championship and \
         the trainer praised the strength and the stamina of the players after the long runs on \
         steep trails and the team won every match of the tournament and lifted the golden trophy \
         in the final match in front of the fans.",
    ),
    (
        "What did the monks copy by hand?",
        "precious texts",
        "The monks of the old monastery copied the precious texts of the library by hand with \
         quill pens and black ink in a quiet room near the garden and the library held thousands \
         of handwritten books and maps and letters from the medieval period and the monks grew \
         herbs and vegetables in the garden for the kitchen.",
    ),
];

/// 64-bit FNV-1a, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of the wire bytes of every distillation, one body per line.
fn distill_digest(gced: &Gced, items: &[(&str, &str, &str)]) -> u64 {
    let mut h = Fnv::new();
    for &(question, answer, context) in items {
        let id =
            gced_store::evidence_id(gced_store::request_fingerprint(question, answer, context));
        let body = match gced.distill(question, answer, context) {
            Ok(d) => render_distillation_with_id(&id, &d),
            Err(e) => render_error(&e.to_string()),
        };
        h.write(body.as_bytes());
        h.write(b"\n");
    }
    h.0
}

/// Feed the `parse_document` parent array of one context into `h`.
fn hash_parents(h: &mut Fnv, context: &str) {
    let doc = gced_text::analyze(context);
    let tree = gced_parser::parse_document(&doc);
    assert_eq!(tree.len(), doc.len());
    for i in 0..tree.len() {
        let p = tree.parent(i).map_or(u32::MAX, |p| p as u32);
        h.write(&p.to_le_bytes());
    }
    h.write(b"|");
}

/// The seed-42 smoke-scale dev split of `kind`, as owned triples.
fn dev_split(kind: DatasetKind) -> Vec<(String, String, String)> {
    let scale = Scale::smoke();
    let ds = gced_datasets::generate(
        kind,
        gced_datasets::GeneratorConfig {
            train: scale.train,
            dev: scale.dev,
            seed: SEED,
        },
    );
    ds.dev
        .examples
        .iter()
        .map(|e| (e.question.clone(), e.answer.clone(), e.context.clone()))
        .collect()
}

fn borrowed(items: &[(String, String, String)]) -> Vec<(&str, &str, &str)> {
    items
        .iter()
        .map(|(q, a, c)| (q.as_str(), a.as_str(), c.as_str()))
        .collect()
}

fn fitted(kind: DatasetKind) -> Gced {
    load_or_fit(kind, Scale::smoke(), SEED, None).expect("fit without a cache cannot fail")
}

#[test]
fn run_on_corpus_is_long_parseable_single_sentences() {
    let parser = gced_parser::CkyParser::embedded();
    for &(_, answer, context) in RUN_ON {
        let doc = gced_text::analyze(context);
        assert_eq!(doc.sentences.len(), 1, "{context}");
        let tags: Vec<Pos> = doc
            .tokens
            .iter()
            .map(|t| t.pos)
            .filter(|p| !matches!(p, Pos::Punct | Pos::Particle))
            .collect();
        assert!(
            (40..=72).contains(&tags.len()),
            "{} kept tokens: {context}",
            tags.len()
        );
        assert!(
            parser.parse_constituency(&tags).is_some(),
            "no CKY parse: {context}"
        );
        assert!(context.contains(answer), "{answer:?} not in context");
    }
}

#[test]
fn distill_bytes_match_golden_digests() {
    let squad = fitted(DatasetKind::Squad11);
    let trivia = fitted(DatasetKind::TriviaWeb);
    let squad_dev = dev_split(DatasetKind::Squad11);
    let trivia_dev = dev_split(DatasetKind::TriviaWeb);
    let got = (
        distill_digest(&squad, &borrowed(&squad_dev)),
        distill_digest(&trivia, &borrowed(&trivia_dev)),
        distill_digest(&squad, RUN_ON),
    );
    assert_eq!(
        got,
        (SQUAD_DISTILL, TRIVIA_DISTILL, RUNON_DISTILL),
        "distill bytes moved: (squad, trivia-web, run-on) = ({:#018x}, {:#018x}, {:#018x})",
        got.0,
        got.1,
        got.2
    );
}

#[test]
fn parse_parents_match_golden_digest() {
    let mut h = Fnv::new();
    for kind in [DatasetKind::Squad11, DatasetKind::TriviaWeb] {
        for (_, _, context) in dev_split(kind) {
            hash_parents(&mut h, &context);
        }
    }
    for &(_, _, context) in RUN_ON {
        hash_parents(&mut h, context);
    }
    assert_eq!(h.0, PARSE_PARENTS, "parse parents moved: {:#018x}", h.0);
}

#[test]
fn table_reports_match_golden_digests() {
    let got: Vec<(&str, u64)> = TABLE_REPORTS
        .iter()
        .map(|&(experiment, _)| {
            let output = run_shard(
                experiment,
                DatasetKind::Squad11,
                Scale::smoke(),
                SEED,
                ShardSpec::single(),
            )
            .expect("smoke run");
            let report = merge(&[output]).expect("single-shard merge").render();
            let mut h = Fnv::new();
            h.write(report.as_bytes());
            (experiment, h.0)
        })
        .collect();
    assert_eq!(
        got,
        TABLE_REPORTS,
        "report bytes moved: {:?}",
        got.iter()
            .map(|(e, d)| format!("{e}={d:#018x}"))
            .collect::<Vec<_>>()
    );
}
