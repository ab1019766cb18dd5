//! The §5.1 Sentiment Prediction case study, end to end.
//!
//! A frozen sentiment model (lexicon + naive Bayes, the repo's flair
//! substitute) scores IMDb-like reviews almost perfectly but scores
//! 1.0 malfunction on twitter-like data, because the twitter labels
//! are `{0, 4}` where the system expects `{-1, +1}`. DataPrism-GRD
//! exposes the Domain profile of `target` and the mapping fix in a
//! couple of interventions.
//!
//! The example also writes both datasets (and the repaired one) as
//! CSV files under a temp directory so you can inspect them.
//!
//! Run: `cargo run --release --example sentiment_debugging`

use dataprism::{Algorithm, Diagnosis, Source};
use dp_frame::csv::write_csv_path;
use dp_scenarios::sentiment;

fn main() {
    let mut scenario = sentiment::scenario_with_size(800, 7);
    println!("scenario: {scenario:?}\n");

    let pass_score = scenario.system.malfunction(&scenario.d_pass);
    let fail_score = scenario.system.malfunction(&scenario.d_fail);
    println!("malfunction on IMDb-like data:    {pass_score:.3}  (paper: 0.09)");
    println!("malfunction on twitter-like data: {fail_score:.3}  (paper: 1.00)\n");

    let explanation = Diagnosis::new(Algorithm::Greedy)
        .run(
            Source::Borrowed(scenario.system.as_mut()),
            &scenario.d_fail,
            &scenario.d_pass,
            &scenario.config,
        )
        .expect("diagnosis runs");
    println!("{explanation}");
    println!(
        "ground truth found: {}",
        scenario.explains_ground_truth(&explanation)
    );

    let dir = std::env::temp_dir().join("dataprism_sentiment");
    std::fs::create_dir_all(&dir).expect("temp dir");
    write_csv_path(&scenario.d_pass, dir.join("imdb_like.csv")).expect("write pass");
    write_csv_path(&scenario.d_fail, dir.join("twitter_like.csv")).expect("write fail");
    write_csv_path(&explanation.repaired, dir.join("twitter_repaired.csv"))
        .expect("write repaired");
    println!("\ndatasets written to {}", dir.display());
}
