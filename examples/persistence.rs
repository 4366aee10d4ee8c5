//! Durable storage: build the paper's relations on a real file, exit,
//! reopen, and query again — the access layer's catalog (page 0) carries
//! the structural metadata across restarts.
//!
//! ```text
//! cargo run --release --example persistence
//! ```

use cor_access::{encode, scan_where, BTreeFile, Catalog, HashFile, DEFAULT_FILL};
use cor_pagestore::{BufferPool, FileDisk};
use cor_relational::{CmpOp, Oid, Predicate, Schema, Tuple, Value, ValueType};
use std::sync::Arc;

fn person_schema() -> Schema {
    Schema::new(&[
        ("oid", ValueType::Oid),
        ("name", ValueType::Str),
        ("age", ValueType::Int),
    ])
}

fn main() {
    let dir = std::env::temp_dir().join("cor-persistence-example");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("people.pages");
    std::fs::remove_file(&path).ok();

    let schema = person_schema();
    let people = [
        ("John", 62i64),
        ("Mary", 62),
        ("Paul", 68),
        ("Jill", 8),
        ("Bill", 12),
        ("Mike", 44),
    ];

    // --- session 1: create, load, persist -------------------------------
    {
        let disk = FileDisk::open(&path).expect("open page file");
        let pool = Arc::new(
            BufferPool::builder()
                .disk(Box::new(disk))
                .capacity(100)
                .build(),
        );
        let catalog = Catalog::create(Arc::clone(&pool)).expect("catalog on page 0");

        let entries: Vec<(Vec<u8>, Vec<u8>)> = people
            .iter()
            .enumerate()
            .map(|(i, (name, age))| {
                let oid = Oid::new(10, i as u64);
                let t = Tuple::new(vec![Value::Oid(oid), Value::from(*name), Value::Int(*age)]);
                (
                    oid.to_key_bytes().to_vec(),
                    encode(&schema, &t).expect("encode"),
                )
            })
            .collect();
        let person =
            BTreeFile::bulk_load(Arc::clone(&pool), 10, entries, DEFAULT_FILL).expect("bulk load");
        catalog
            .save_btree("person", &person)
            .expect("catalog entry");

        // A hash relation on the side (the Cache relation's machinery).
        let notes = HashFile::create(Arc::clone(&pool), 4).expect("hash file");
        notes
            .put(b"elders", b"persons with age >= 60")
            .expect("put");
        catalog.save_hash("notes", &notes).expect("catalog entry");

        pool.flush_all().expect("make everything durable");
        println!(
            "session 1: loaded {} persons into {} ({} pages), catalog saved",
            person.len(),
            path.display(),
            pool.num_pages()
        );
    } // everything dropped — "process exit"

    // --- session 2: reopen and query -------------------------------------
    {
        let disk = FileDisk::open(&path).expect("reopen page file");
        let pool = Arc::new(
            BufferPool::builder()
                .disk(Box::new(disk))
                .capacity(100)
                .build(),
        );
        let catalog = Catalog::open(Arc::clone(&pool)).expect("catalog present");
        let mut names = catalog.names().expect("listable");
        names.sort();
        println!("session 2: catalog entries {names:?}");

        let person = catalog.open_btree("person").expect("reattach");
        println!(
            "  person relation: {} tuples, height {}",
            person.len(),
            person.height()
        );

        // retrieve (person.name, person.age) where person.age >= 60
        let is_elder = Predicate::cmp(2, CmpOp::Ge, 60);
        let elders: Vec<(String, i64)> = scan_where(&person, &schema, &is_elder)
            .expect("scan")
            .into_iter()
            .map(|t| {
                (
                    t.get(1).as_str().expect("name").to_string(),
                    t.get(2).as_int().expect("age"),
                )
            })
            .collect();
        println!("  elders (age >= 60): {elders:?}");
        assert_eq!(elders.len(), 3);

        let notes = catalog.open_hash("notes").expect("reattach hash");
        let definition = notes.get(b"elders").expect("get").expect("present");
        println!(
            "  notes[elders] = {:?}",
            String::from_utf8_lossy(&definition)
        );
    }

    std::fs::remove_file(&path).ok();
    println!("done — the database survived the restart.");
}
