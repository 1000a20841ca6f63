//! Published constants transcribed from the paper.
//!
//! As in the paper itself — "the experiment accuracy results of 10 methods
//! … are all taken from the papers \[2\], \[12\], \[23\]" — these columns are
//! *literature constants*, not measurements of this codebase. They feed
//! the Table VI reproduction and the Figure 11 critical-difference
//! diagram. The `ELIS` entry for NonInvasiveFatalECGThorax1 is missing in
//! the paper ("/"); it is stored as NaN and substituted with 0 when a
//! complete matrix is required (matching "worst possible" semantics).

/// Method names of Table VI, in column order.
pub const TABLE6_METHODS: [&str; 13] = [
    "RotF",
    "DTW_Rn_1NN",
    "ST",
    "LTS",
    "FS",
    "SD",
    "ELIS",
    "BSPCOVER",
    "ResNet",
    "COTE",
    "COTE-IPS",
    "BASE",
    "IPS",
];

/// One Table VI row: dataset name and the 13 published accuracies (%).
pub struct Table6Row {
    /// UCR dataset name.
    pub dataset: &'static str,
    /// Accuracies in [`TABLE6_METHODS`] order; NaN = not reported.
    pub acc: [f64; 13],
}

/// The full published Table VI (46 datasets × 13 methods).
pub const TABLE6: [Table6Row; 46] = [
    t6(
        "ArrowHead",
        [
            73.71, 80.0, 73.71, 84.57, 59.43, 65.7, 81.43, 80.57, 84.5, 81.14, 84.0, 61.14, 85.14,
        ],
    ),
    t6(
        "Beef",
        [
            86.67, 66.67, 90.0, 86.67, 56.67, 50.7, 63.33, 73.33, 75.3, 86.67, 90.0, 50.0, 73.33,
        ],
    ),
    t6(
        "BeetleFly",
        [
            90.0, 65.0, 90.0, 80.0, 70.0, 75.0, 85.0, 90.0, 85.0, 80.0, 90.0, 75.0, 90.0,
        ],
    ),
    t6(
        "CBF",
        [
            92.89, 99.44, 97.44, 99.11, 94.0, 97.5, 90.44, 99.67, 99.5, 99.56, 99.78, 68.0, 99.78,
        ],
    ),
    t6(
        "ChlorineConcentration",
        [
            84.74, 65.0, 69.97, 59.24, 54.64, 55.3, 27.39, 61.22, 84.4, 72.71, 70.5, 54.66, 63.41,
        ],
    ),
    t6(
        "Coffee",
        [
            100.0, 100.0, 96.43, 100.0, 92.86, 96.1, 96.43, 100.0, 100.0, 100.0, 100.0, 95.14,
            100.0,
        ],
    ),
    t6(
        "Computers",
        [
            70.0, 62.4, 73.6, 58.4, 50.0, 58.8, 50.0, 67.2, 81.5, 74.0, 74.0, 66.8, 74.0,
        ],
    ),
    t6(
        "CricketZ",
        [
            65.64, 73.59, 78.72, 74.1, 46.41, 67.3, 78.95, 74.1, 81.2, 81.54, 81.54, 37.44, 78.46,
        ],
    ),
    t6(
        "DiatomSizeReduction",
        [
            87.25, 93.46, 92.48, 98.04, 86.6, 89.6, 89.86, 87.25, 30.1, 92.81, 92.81, 89.2, 88.89,
        ],
    ),
    t6(
        "DistalPhalanxOutlineCorrect",
        [
            75.72, 72.46, 77.54, 77.9, 75.0, 71.7, 57.83, 83.17, 71.7, 76.09, 80.17, 78.83, 83.67,
        ],
    ),
    t6(
        "Earthquakes",
        [
            74.82, 72.66, 74.1, 74.1, 70.5, 63.6, 77.64, 81.68, 71.2, 74.82, 78.99, 81.99, 81.99,
        ],
    ),
    t6(
        "ECG200",
        [
            85.0, 88.0, 83.0, 88.0, 81.0, 81.8, 80.0, 92.0, 87.4, 88.0, 88.0, 88.0, 88.0,
        ],
    ),
    t6(
        "ECG5000",
        [
            94.58, 92.51, 94.38, 93.22, 92.27, 92.4, 72.69, 94.44, 93.4, 94.6, 94.44, 92.34, 94.44,
        ],
    ),
    t6(
        "ECGFiveDays",
        [
            90.82, 79.67, 98.37, 100.0, 99.77, 95.3, 95.45, 100.0, 97.5, 99.88, 99.88, 77.82, 99.88,
        ],
    ),
    t6(
        "ElectricDevices",
        [
            78.58, 63.08, 74.7, 58.75, 57.9, 59.3, 8.65, 24.24, 72.9, 71.33, 70.6, 53.99, 55.47,
        ],
    ),
    t6(
        "FaceAll",
        [
            91.12, 80.77, 77.87, 74.85, 62.6, 71.4, 75.56, 76.33, 83.9, 91.78, 85.6, 70.18, 76.36,
        ],
    ),
    t6(
        "FaceFour",
        [
            81.82, 89.77, 85.23, 96.59, 90.91, 82.0, 95.46, 96.59, 95.5, 89.77, 91.58, 81.82, 92.78,
        ],
    ),
    t6(
        "FacesUCR",
        [
            80.29, 90.78, 90.59, 93.9, 70.59, 84.7, 63.63, 78.29, 95.5, 94.24, 93.9, 67.61, 80.58,
        ],
    ),
    t6(
        "FordA",
        [
            84.47, 66.52, 97.12, 95.68, 78.71, 77.6, 67.6, 96.31, 92.0, 95.68, 94.12, 63.32, 84.78,
        ],
    ),
    t6(
        "GunPoint",
        [
            92.0, 91.33, 100.0, 100.0, 94.67, 93.1, 97.57, 100.0, 99.1, 100.0, 100.0, 82.67, 100.0,
        ],
    ),
    t6(
        "Ham",
        [
            71.43, 60.0, 68.57, 66.67, 64.76, 61.9, 63.81, 76.19, 75.7, 64.76, 69.68, 68.57, 72.38,
        ],
    ),
    t6(
        "HandOutlines",
        [
            91.08, 87.84, 93.24, 48.11, 81.08, 79.9, 5.81, 86.7, 91.1, 91.89, 90.62, 73.8, 89.9,
        ],
    ),
    t6(
        "Haptics",
        [
            43.83, 41.56, 52.24, 46.75, 39.29, 35.6, 41.56, 45.13, 51.9, 52.27, 52.27, 30.19, 43.51,
        ],
    ),
    t6(
        "InlineSkate",
        [
            37.09, 38.73, 37.27, 43.82, 18.91, 38.5, 35.46, 38.73, 37.3, 49.45, 48.75, 21.27, 43.82,
        ],
    ),
    t6(
        "InsectWingbeatSound",
        [
            63.64, 57.37, 62.68, 60.61, 48.94, 44.1, 59.55, 57.42, 50.7, 65.25, 63.55, 17.63, 56.52,
        ],
    ),
    t6(
        "ItalyPowerDemand",
        [
            97.28, 95.53, 94.75, 96.02, 91.74, 92.0, 96.57, 96.5, 96.3, 96.11, 96.11, 92.63, 96.6,
        ],
    ),
    t6(
        "LargeKitchenAppliances",
        [
            60.8, 79.47, 85.87, 70.13, 56.0, 57.1, 33.33, 86.13, 90.0, 84.53, 84.53, 57.6, 85.34,
        ],
    ),
    t6(
        "Mallat",
        [
            94.93, 91.43, 96.42, 95.01, 97.61, 92.6, 81.58, 76.8, 97.2, 95.39, 95.39, 90.54, 94.69,
        ],
    ),
    t6(
        "Meat",
        [
            96.67, 93.33, 85.0, 73.33, 83.33, 93.3, 55.0, 75.0, 96.8, 91.67, 92.88, 93.33, 93.33,
        ],
    ),
    t6(
        "NonInvasiveFatalECGThorax1",
        [
            90.53,
            82.9,
            94.96,
            25.9,
            71.04,
            81.4,
            f64::NAN,
            91.47,
            94.5,
            93.13,
            93.13,
            56.74,
            92.06,
        ],
    ),
    t6(
        "OSULeaf",
        [
            57.02, 59.92, 96.69, 77.69, 67.77, 56.6, 76.45, 83.88, 97.9, 96.69, 95.45, 57.44, 71.49,
        ],
    ),
    t6(
        "Phoneme",
        [
            12.97, 22.68, 32.07, 21.84, 17.35, 15.8, 15.19, 20.73, 33.4, 34.92, 33.58, 18.41, 28.43,
        ],
    ),
    t6(
        "RefrigerationDevices",
        [
            56.53, 44.0, 58.13, 51.47, 33.33, 46.1, 40.0, 54.67, 52.5, 54.67, 58.67, 49.87, 78.33,
        ],
    ),
    t6(
        "ShapeletSim",
        [
            41.11, 69.44, 95.56, 95.0, 100.0, 67.2, 100.0, 84.44, 77.9, 96.11, 96.67, 54.44, 84.33,
        ],
    ),
    t6(
        "SonyAIBORobotSurface1",
        [
            80.87, 69.55, 84.36, 81.03, 68.55, 85.0, 87.85, 88.35, 95.8, 84.53, 92.4, 87.35, 98.5,
        ],
    ),
    t6(
        "SonyAIBORobotSurface2",
        [
            80.8, 85.94, 93.39, 87.51, 79.01, 78.0, 93.17, 93.49, 97.8, 95.17, 93.84, 82.78, 91.71,
        ],
    ),
    t6(
        "Strawberry",
        [
            97.3, 94.59, 96.22, 91.08, 90.27, 88.4, 83.85, 94.29, 98.1, 95.14, 96.9, 87.6, 96.72,
        ],
    ),
    t6(
        "Symbols",
        [
            79.3, 93.77, 88.24, 93.17, 93.37, 90.1, 78.29, 93.37, 90.6, 96.38, 96.38, 69.45, 94.1,
        ],
    ),
    t6(
        "SyntheticControl",
        [
            97.33, 98.33, 98.33, 99.67, 91.0, 98.3, 99.33, 99.67, 99.8, 100.0, 100.0, 94.67, 99.67,
        ],
    ),
    t6(
        "ToeSegmentation1",
        [
            53.07, 75.0, 96.49, 93.42, 95.61, 88.2, 98.24, 96.49, 96.3, 97.37, 97.37, 70.18, 96.49,
        ],
    ),
    t6(
        "TwoLeadECG",
        [
            97.01, 86.83, 99.74, 99.65, 92.45, 86.7, 99.82, 99.65, 100.0, 99.3, 99.3, 88.85, 97.1,
        ],
    ),
    t6(
        "TwoPatterns",
        [
            92.8, 99.85, 95.5, 99.33, 90.83, 98.1, 99.75, 99.8, 100.0, 100.0, 100.0, 91.5, 99.05,
        ],
    ),
    t6(
        "UWaveGestureLibraryY",
        [
            71.44, 70.18, 73.03, 70.3, 59.58, 67.1, 69.32, 64.01, 67.0, 75.85, 75.85, 53.81, 65.21,
        ],
    ),
    t6(
        "Wafer",
        [
            99.45, 99.59, 100.0, 99.61, 99.68, 99.3, 99.43, 99.81, 99.9, 99.98, 99.98, 96.24, 99.51,
        ],
    ),
    t6(
        "WormsTwoClass",
        [
            68.83, 58.44, 83.12, 72.73, 72.73, 64.1, 71.82, 74.59, 74.7, 80.52, 80.52, 42.54, 73.48,
        ],
    ),
    t6(
        "Yoga",
        [
            82.43, 84.3, 81.77, 83.43, 69.5, 62.5, 83.9, 88.2, 87.0, 87.67, 87.67, 70.53, 85.73,
        ],
    ),
];

const fn t6(dataset: &'static str, acc: [f64; 13]) -> Table6Row {
    Table6Row { dataset, acc }
}

/// One Table IV row: published total runtimes in seconds.
pub struct Table4Row {
    /// UCR dataset name.
    pub dataset: &'static str,
    /// BASE runtime (s).
    pub base_s: f64,
    /// BSPCOVER runtime (s).
    pub bspcover_s: f64,
    /// IPS runtime (s).
    pub ips_s: f64,
}

/// The full published Table IV (46 datasets).
pub const TABLE4: [Table4Row; 46] = [
    t4("ArrowHead", 7.65, 55.57, 10.57),
    t4("Beef", 10.56, 131.17, 15.42),
    t4("BeetleFly", 16.19, 42.92, 16.46),
    t4("CBF", 4.53, 16.43, 4.85),
    t4("ChlorineConcentration", 29.17, 173.86, 29.66),
    t4("Coffee", 5.15, 10.96, 6.33),
    t4("Computers", 103.63, 1049.52, 104.99),
    t4("CricketZ", 641.89, 20993.38, 756.90),
    t4("DiatomSizeReduction", 11.87, 30.04, 13.04),
    t4("DistalPhalanxOutlineCorrect", 12.67, 52.39, 16.76),
    t4("Earthquakes", 178.06, 2957.36, 179.97),
    t4("ECG200", 9.17, 48.34, 13.49),
    t4("ECG5000", 30.01, 600.37, 38.35),
    t4("ECGFiveDays", 1.06, 1.38, 1.11),
    t4("ElectricDevices", 202.86, 20851.50, 251.53),
    t4("FaceAll", 108.63, 1541.80, 122.38),
    t4("FaceFour", 9.59, 32.67, 9.83),
    t4("FacesUCR", 5.19, 1265.71, 7.04),
    t4("FordA", 236.45, 37481.21, 255.09),
    t4("GunPoint", 2.28, 8.97, 3.05),
    t4("Ham", 11.49, 126.13, 21.91),
    t4("HandOutlines", 607.26, 4340.86, 623.87),
    t4("Haptics", 504.48, 11523.26, 590.07),
    t4("InlineSkate", 993.56, 15060.30, 989.82),
    t4("InsectWingbeatSound", 169.25, 646.49, 172.25),
    t4("ItalyPowerDemand", 0.45, 2.91, 0.67),
    t4("LargeKitchenAppliances", 412.52, 13974.8, 488.02),
    t4("Mallat", 135.05, 2896.15, 159.36),
    t4("Meat", 8.85, 44.02, 9.37),
    t4("NonInvasiveFatalECGThorax1", 15385.63, 40125.42, 15806.39),
    t4("OSULeaf", 99.48, 6753.46, 110.42),
    t4("Phoneme", 3586.33, 45767.83, 3812.99),
    t4("RefrigerationDevices", 1258.35, 8871.13, 1563.59),
    t4("ShapeletSim", 30.08, 455.23, 39.26),
    t4("SonyAIBORobotSurface1", 2.39, 4.19, 2.89),
    t4("SonyAIBORobotSurface2", 1.65, 3.78, 2.59),
    t4("Strawberry", 15.64, 235.17, 18.87),
    t4("Symbols", 10.11, 90.43, 15.85),
    t4("SyntheticControl", 5.36, 249.29, 6.01),
    t4("ToeSegmentation1", 1.62, 19.91, 2.71),
    t4("TwoLeadECG", 8.27, 20.32, 8.98),
    t4("TwoPatterns", 149.16, 17891.24, 152.13),
    t4("UWaveGestureLibraryY", 956.34, 193667.30, 998.26),
    t4("Wafer", 50.49, 825.96, 56.88),
    t4("WormsTwoClass", 305.49, 1124.08, 321.57),
    t4("Yoga", 207.58, 10593.18, 227.35),
];

const fn t4(dataset: &'static str, base_s: f64, bspcover_s: f64, ips_s: f64) -> Table4Row {
    Table4Row {
        dataset,
        base_s,
        bspcover_s,
        ips_s,
    }
}

/// Published Table II: MP-baseline top-k accuracy (%) plus 1NN-ED/1NN-DTW
/// on four datasets. Column order: k = 1, 2, 5, 10, 20, 50, 100, then ED,
/// DTW.
pub const TABLE2: [(&str, [f64; 9]); 4] = [
    (
        "ArrowHead",
        [61.71, 64.0, 61.14, 65.14, 61.28, 65.71, 61.71, 80.0, 70.29],
    ),
    (
        "MoteStrain",
        [
            69.88, 77.47, 77.08, 78.59, 77.02, 77.39, 78.19, 87.79, 83.47,
        ],
    ),
    (
        "ShapeletSim",
        [52.23, 55.56, 54.44, 58.33, 60.56, 57.77, 56.11, 53.89, 65.0],
    ),
    (
        "ToeSegmentation1",
        [66.66, 67.1, 70.18, 68.86, 71.49, 72.36, 71.93, 67.98, 77.19],
    ),
];

/// Published Table III: DABF best-fit distribution and NMSE on ten
/// datasets.
pub const TABLE3: [(&str, &str, f64); 10] = [
    ("ArrowHead", "Norm", 0.073),
    ("BeetleFly", "Norm", 0.041),
    ("Coffee", "Norm", 0.085),
    ("ECG200", "Norm", 0.019),
    ("FordA", "Norm", 0.027),
    ("GunPoint", "Norm", 0.208),
    ("ItalyPowerDemand", "Norm", 0.037),
    ("Meat", "Gamma", 0.425),
    ("Symbols", "Norm", 0.069),
    ("ToeSegmentation1", "Norm", 0.179),
];

/// Published Table VII: LSH family accuracies (%) on ten datasets —
/// `(dataset, hamming, cosine, l2)`.
pub const TABLE7: [(&str, f64, f64, f64); 10] = [
    ("ArrowHead", 78.22, 84.31, 85.14),
    ("BeetleFly", 80.0, 85.0, 90.0),
    ("Coffee", 95.69, 96.1, 100.0),
    ("ECG200", 80.0, 88.0, 88.0),
    ("FordA", 79.72, 80.82, 84.78),
    ("GunPoint", 91.33, 97.28, 100.0),
    ("ItalyPowerDemand", 92.8, 94.7, 96.6),
    ("Meat", 83.33, 93.33, 93.33),
    ("Symbols", 70.82, 89.07, 94.1),
    ("ToeSegmentation1", 76.54, 82.91, 96.49),
];
