package sema

// PaperModel is the paper's Codes 1-5 as one model, for the external
// tests of this package.
const PaperModel = paperModel
