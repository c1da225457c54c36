package plan

// KeyCorpus is the key golden's corpus, for the external tests.
var KeyCorpus = keyCorpus
